package dfaster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/metadata"
	"dpr/internal/wire"
)

// This file drives the client's batch lifecycle (client.go) through every
// transition it has, against scripted stand-ins for workers, and checks after
// each script what must hold whatever happened: every callback fired exactly
// once, no window slot and no sequence number is still held, batches executed
// in the order the session sent them, and the state machine counted no
// transition it does not allow.

type act uint8

const (
	actReply act = iota
	actBadOwner
	actRejected
	actInternal
	actRetryable
	actStale
	actGarbageReply // a reply frame that does not decode
	actGarbageError // an error frame that does not decode
	actUnknownTag
	actSever // close the connection without answering
	actHold  // never answer
)

var actCodes = map[act]byte{
	actBadOwner: wire.ErrCodeBadOwner, actRejected: wire.ErrCodeRejected,
	actInternal: wire.ErrCodeInternal, actRetryable: wire.ErrCodeRetryable, actStale: wire.ErrCodeStale,
}

// step is one answer of a scripted worker; then, if set, runs before it is
// written (flip an owner, start a recovery, wait for the test).
type step struct {
	act  act
	then func()
}

type executed struct {
	worker core.WorkerID
	wl     core.WorldLine
	seq    uint64
	n      int
}

// scriptedWorker answers each batch request by the script for its first
// sequence number, one step per arrival; the last step repeats, and a batch
// with no script is executed. Like a real worker it rejects a batch from a
// world-line the cluster has left, and never executes a batch that would
// overtake one it has refused on the same partition — a real worker never
// comes to own a partition it has refused a session's batch on (AdoptWorker)
// — so the client's half of session order is to bring the refused ones back
// first, and in order.
type scriptedWorker struct {
	id   core.WorkerID
	env  *lifecycleEnv
	ln   net.Listener
	wg   sync.WaitGroup
	stop chan struct{}

	mu       sync.Mutex
	script   map[uint64][]step
	arrivals map[uint64]int
	refused  map[uint64][]uint64 // partition → refused, not yet executed, sequence numbers
	conns    []net.Conn
}

func (w *scriptedWorker) seen(seq uint64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.arrivals[seq]
}

func (w *scriptedWorker) serve() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return
		}
		w.mu.Lock()
		w.conns = append(w.conns, conn)
		w.mu.Unlock()
		w.wg.Add(1)
		go w.handle(conn)
	}
}

func (w *scriptedWorker) handle(conn net.Conn) {
	defer w.wg.Done()
	defer conn.Close()
	fr := wire.NewFrameReader(bufio.NewReader(conn))
	defer fr.Close()
	bw := bufio.NewWriter(conn)
	var req wire.BatchRequest
	for {
		tag, payload, err := fr.Read()
		if err != nil {
			return
		}
		if tag != wire.FrameBatchRequest || wire.DecodeBatchRequestInto(&req, payload) != nil {
			w.env.t.Errorf("worker %d: unreadable frame (tag %d)", w.id, tag)
			return
		}
		h := req.Header
		w.mu.Lock()
		st := step{}
		if sc := w.script[h.SeqStart]; len(sc) > 0 {
			st = sc[min(w.arrivals[h.SeqStart], len(sc)-1)]
		}
		w.arrivals[h.SeqStart]++
		w.mu.Unlock()
		if st.then != nil {
			st.then()
		}
		_, _, wl, _ := w.env.meta.State()
		part := PartitionOf(req.Ops[0].Key, testPartitions)
		w.mu.Lock()
		held := w.refused[part]
		switch {
		case st.act == actReply && h.WorldLine < wl:
			st.act = actRejected
		case st.act == actReply && len(held) > 0 && slices.Min(held) < h.SeqStart:
			st.act = actBadOwner
		}
		switch i := slices.Index(held, h.SeqStart); {
		case st.act == actReply && i >= 0:
			w.refused[part] = slices.Delete(held, i, i+1)
		case st.act == actBadOwner && i < 0:
			w.refused[part] = append(held, h.SeqStart)
		}
		w.mu.Unlock()
		out, frame := []byte(nil), wire.FrameError
		switch st.act {
		case actReply:
			reply := wire.BatchReply{WorldLine: h.WorldLine}
			for range req.Ops {
				reply.Results = append(reply.Results, wire.OpResult{Status: wire.StatusOK, Version: 1})
			}
			w.env.log(executed{w.id, h.WorldLine, h.SeqStart, len(req.Ops)})
			out, frame = wire.AppendBatchReply(nil, &reply), wire.FrameBatchReply
		case actGarbageReply:
			out, frame = []byte{0xff}, wire.FrameBatchReply
		case actGarbageError:
			out = []byte{0xff}
		case actUnknownTag:
			out, frame = []byte{0}, 99
		case actSever:
			return
		case actHold:
			<-w.stop
			return
		default:
			out = wire.AppendError(nil, &wire.ErrorReply{Code: actCodes[st.act], WorldLine: wl, Message: "scripted"})
		}
		if wire.WriteFrame(bw, frame, out) != nil || bw.Flush() != nil {
			return
		}
	}
}

// gatedMeta is a metadata store whose OwnerOf can be made to block, which
// holds a re-driving batch in that state for as long as a test needs.
type gatedMeta struct {
	*metadata.Store
	mu      sync.Mutex
	gate    chan struct{} // non-nil: OwnerOf waits for it to close
	blocked chan struct{} // closed by the first OwnerOf that waits
}

func (m *gatedMeta) OwnerOf(p uint64) (core.WorkerID, error) {
	m.mu.Lock()
	gate := m.gate
	if gate != nil && m.blocked != nil {
		close(m.blocked)
		m.blocked = nil
	}
	m.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return m.Store.OwnerOf(p)
}

// shut gates OwnerOf; the first channel closes when a caller is waiting at
// the gate, closing the second lets everyone through.
func (m *gatedMeta) shut() (blocked <-chan struct{}, open chan<- struct{}) {
	b, g := make(chan struct{}), make(chan struct{})
	m.mu.Lock()
	m.blocked, m.gate = b, g
	m.mu.Unlock()
	return b, g
}

const (
	wantOK  = int32(wire.StatusOK)
	wantErr = int32(wire.StatusError)
)

type lifecycleEnv struct {
	t       *testing.T
	meta    *gatedMeta
	workers map[core.WorkerID]*scriptedWorker
	c       *Client

	mu  sync.Mutex
	ran []executed

	fired  []*atomic.Int32 // per operation issued: callbacks received
	status []*atomic.Int32 // and the last status
}

func (e *lifecycleEnv) log(x executed) {
	e.mu.Lock()
	e.ran = append(e.ran, x)
	e.mu.Unlock()
}

// keyIn returns a key of partition p.
func keyIn(p uint64) []byte {
	for i := 0; ; i++ {
		if k := []byte(fmt.Sprintf("k%d", i)); PartitionOf(k, testPartitions) == p {
			return k
		}
	}
}

func newLifecycleEnv(t *testing.T, batch int) *lifecycleEnv {
	e := &lifecycleEnv{
		t:       t,
		meta:    &gatedMeta{Store: metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})},
		workers: make(map[core.WorkerID]*scriptedWorker),
	}
	for id := core.WorkerID(1); id <= 2; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := &scriptedWorker{id: id, env: e, ln: ln, stop: make(chan struct{}),
			script: make(map[uint64][]step), arrivals: make(map[uint64]int), refused: make(map[uint64][]uint64)}
		e.workers[id] = w
		if err := e.meta.RegisterWorker(id, ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		w.wg.Add(1)
		go w.serve()
	}
	for p := uint64(0); p < testPartitions; p++ {
		if err := e.meta.SetOwner(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	e.c, err = NewClient(ClientConfig{Partitions: testPartitions, BatchSize: batch, Window: 8, Relaxed: true}, e.meta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.c.Close()
		for _, w := range e.workers {
			close(w.stop)
			w.ln.Close()
			w.mu.Lock()
			for _, conn := range w.conns {
				conn.Close()
			}
			w.mu.Unlock()
			w.wg.Wait()
		}
	})
	return e
}

// script sets worker id's answers to the batch starting at seq.
func (e *lifecycleEnv) script(id core.WorkerID, seq uint64, sc ...step) {
	w := e.workers[id]
	w.mu.Lock()
	w.script[seq] = sc
	w.mu.Unlock()
}

func steps(acts ...act) []step {
	var s []step
	for _, a := range acts {
		s = append(s, step{act: a})
	}
	return s
}

// issue enqueues one operation on a key of partition p and returns its index.
// An enqueue error is returned as it is: the callback still fires if the
// client had taken the operation.
func (e *lifecycleEnv) issue(kind byte, p uint64) (int, error) {
	i := len(e.fired)
	fired, status := new(atomic.Int32), new(atomic.Int32)
	e.fired, e.status = append(e.fired, fired), append(e.status, status)
	cb := func(r wire.OpResult) {
		status.Store(int32(r.Status))
		fired.Add(1)
	}
	if kind == wire.OpRead {
		return i, e.c.Read(keyIn(p), cb)
	}
	return i, e.c.Upsert(keyIn(p), []byte("v"), cb)
}

func (e *lifecycleEnv) upsert(p uint64) int {
	i, err := e.issue(wire.OpUpsert, p)
	if err != nil {
		e.t.Fatalf("upsert %d: %v", i, err)
	}
	return i
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// await blocks until operation i's callback has fired.
func (e *lifecycleEnv) await(i int) {
	e.t.Helper()
	waitFor(e.t, fmt.Sprintf("operation %d's callback", i), func() bool { return e.fired[i].Load() > 0 })
}

// settled waits for every operation issued to settle and checks the
// lifecycle's invariants; want gives each operation's status.
func (e *lifecycleEnv) settled(want ...int32) {
	e.t.Helper()
	for i := range e.fired {
		e.await(i)
	}
	checkQuiescent(e.t, e.c)
	if len(want) != len(e.fired) {
		e.t.Fatalf("%d statuses wanted for %d operations", len(want), len(e.fired))
	}
	for i := range e.fired {
		if n := e.fired[i].Load(); n != 1 {
			e.t.Errorf("operation %d: callback fired %d times, want 1", i, n)
		}
		if got := e.status[i].Load(); got != want[i] {
			e.t.Errorf("operation %d: status %d, want %d", i, got, want[i])
		}
	}
	// Session order: on each world-line, a worker executed the session's
	// batches in ascending sequence order, however often they were refused
	// on the way.
	e.mu.Lock()
	defer e.mu.Unlock()
	last := make(map[core.WorkerID]executed)
	for _, x := range e.ran {
		if a, ok := last[x.worker]; ok && a.wl == x.wl && x.seq < a.seq+uint64(a.n) {
			e.t.Errorf("session order broken: seq %d executed after seq %d: %+v", x.seq, a.seq, e.ran)
		}
		last[x.worker] = x
	}
}

// checkQuiescent checks a client with nothing left to settle: no window slot
// held, nothing in flight, parked or re-driving, no sequence number in flight
// in the session, and no transition the lifecycle does not allow ever counted
// (the counter is process-wide, so one violation fails every later check too).
func checkQuiescent(t *testing.T, c *Client) {
	t.Helper()
	waitFor(t, "the client to go quiescent", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.outstanding == 0 && c.head == nil
	})
	c.mu.Lock()
	if c.outstanding != 0 || c.head != nil || len(c.retryQ) != 0 {
		t.Errorf("outstanding %d, head %v, %d parked; want 0, nil, 0", c.outstanding, c.head, len(c.retryQ))
	}
	for id, wc := range c.conns {
		if len(wc.inflight) != 0 {
			t.Errorf("%d batches still in flight to worker %d", len(wc.inflight), id)
		}
	}
	c.mu.Unlock()
	_ = c.Err() // the owner takes in what settled: the session's state is its
	if n := c.Session().Tracker().InFlight(); n != 0 {
		t.Errorf("session has %d sequence numbers in flight, want 0", n)
	}
	if n := lifecycleViolations.Value(); n != 0 {
		t.Errorf("%d batch lifecycle violations counted", n)
	}
}

func TestBatchLifecycle(t *testing.T) {
	scenarios := []struct {
		name  string
		batch int
		run   func(e *lifecycleEnv)
	}{
		{"reply", 1, func(e *lifecycleEnv) {
			for i := 0; i < 3; i++ {
				e.upsert(0)
			}
			e.settled(wantOK, wantOK, wantOK)
		}},
		{"error codes settle the batch and nothing else", 1, func(e *lifecycleEnv) {
			// Rejected here is a rejection on the session's own world-line:
			// nothing rolls back, the batch is simply gone.
			codes := []act{actInternal, actRetryable, actStale, actRejected}
			var want []int32
			for i, a := range codes {
				e.script(1, uint64(2*i+1), step{act: a})
				e.upsert(0)
				e.upsert(0)
				want = append(want, wantErr, wantOK)
			}
			e.settled(want...)
			if err := e.c.Err(); err != nil {
				e.t.Errorf("a same-world-line rejection latched a failure: %v", err)
			}
		}},
		{"undecodable answers", 1, func(e *lifecycleEnv) {
			var want []int32
			for i, a := range []act{actGarbageReply, actGarbageError, actUnknownTag} {
				e.script(1, uint64(2*i+1), step{act: a})
				e.upsert(0)
				e.upsert(0)
				want = append(want, wantErr, wantOK)
			}
			e.settled(want...)
		}},
		{"a stranded write is abandoned, a stranded read re-driven", 1, func(e *lifecycleEnv) {
			e.script(1, 2, step{act: actSever})
			e.script(1, 4, steps(actSever, actReply)...)
			e.upsert(0)
			e.await(e.upsert(0)) // seq 2: severed
			e.upsert(0)
			i, _ := e.issue(wire.OpRead, 0) // seq 4: severed, re-driven, answered
			e.await(i)
			e.upsert(0)
			e.settled(wantOK, wantErr, wantOK, wantOK, wantOK)
			if n, _ := e.c.Abandoned(); n != 1 {
				e.t.Errorf("%d operations abandoned, want 1 (the write)", n)
			}
		}},
		{"refused, re-driven, refused again, answered", 1, func(e *lifecycleEnv) {
			e.script(1, 2, steps(actBadOwner, actBadOwner, actReply)...)
			e.upsert(0)
			e.upsert(0)
			e.upsert(0)
			e.settled(wantOK, wantOK, wantOK)
			if n := e.workers[1].seen(2); n != 3 {
				e.t.Errorf("seq 2 reached the worker %d times, want 3", n)
			}
		}},
		{"retries exhausted", 1, func(e *lifecycleEnv) {
			e.script(1, 1, step{act: actBadOwner})
			e.await(e.upsert(0))
			e.upsert(1) // the worker still holds partition 0 for the seq it refused
			e.settled(wantErr, wantOK)
			if n := e.workers[1].seen(1); n != 1+retryBadOwner {
				e.t.Errorf("seq 1 reached the worker %d times, want 1 + retryBadOwner", n)
			}
		}},
		{"session order across a re-drive", 1, func(e *lifecycleEnv) {
			// Seqs 2, 4 and 5 are refused once each, wherever the pipeline
			// stands when each is; what is behind them — in the pipe already,
			// or a fresh send — must not execute first.
			for _, seq := range []uint64{2, 4, 5} {
				e.script(1, seq, steps(actBadOwner, actReply)...)
			}
			var want []int32
			for i := 0; i < 8; i++ {
				e.upsert(0)
				want = append(want, wantOK)
			}
			e.settled(want...)
		}},
		{"Close while in flight", 1, func(e *lifecycleEnv) {
			e.script(1, 1, step{act: actHold})
			e.upsert(0)
			waitFor(e.t, "the batch to reach the worker", func() bool { return e.workers[1].seen(1) == 1 })
			e.c.Close()
			e.settled(wantErr)
		}},
		{"Close while parked", 1, func(e *lifecycleEnv) {
			// Seq 1 is refused and re-driven into a worker that sits on it;
			// seq 2, refused behind it, stays parked.
			both := make(chan struct{})
			e.script(1, 1, step{act: actBadOwner, then: func() { <-both }}, step{act: actHold})
			e.script(1, 2, step{act: actBadOwner})
			e.upsert(0)
			e.upsert(0)
			close(both)
			waitFor(e.t, "seq 2 to park behind the re-driven seq 1", func() bool {
				e.c.mu.Lock()
				defer e.c.mu.Unlock()
				return len(e.c.retryQ) == 1 && e.workers[1].seen(1) == 2
			})
			e.c.Close()
			e.settled(wantErr, wantErr)
			if _, recent := e.c.Abandoned(); len(recent) != 2 || recent[0] != "seq 2+1 closed" {
				e.t.Errorf("abandoned %q, want the parked seq 2 first, as closed", recent)
			}
		}},
		{"Close while re-driving", 1, func(e *lifecycleEnv) {
			e.upsert(0) // resolves the owner before the gate shuts
			e.c.Drain()
			e.script(1, 2, step{act: actBadOwner})
			blocked, open := e.meta.shut()
			e.upsert(0)
			<-blocked // the re-drive is asking who owns the key now
			e.c.Close()
			close(open)
			e.settled(wantOK, wantErr)
		}},
		{"Err after a rejection", 1, func(e *lifecycleEnv) {
			// The cluster recovers before seq 2 executes, erasing seq 1. Once
			// seq 2's callback has seen StatusError, the owner's Err is the
			// SurvivalError, as FetchAdd and the queue read it there.
			e.script(1, 2, step{then: func() {
				wl, _ := e.meta.BeginRecovery()
				e.meta.CompleteRecoveryFor(wl)
			}, act: actRejected})
			e.upsert(0)
			e.upsert(0)
			e.await(1)
			var surv *core.SurvivalError
			if err := e.c.Err(); !errors.As(err, &surv) {
				e.t.Fatalf("Err after the rejected batch's callback = %v, want the SurvivalError", err)
			}
			e.c.Acknowledge()
			if err := e.c.Err(); err != nil {
				e.t.Fatalf("Err after Acknowledge = %v, want nil", err)
			}
			e.settled(wantOK, wantErr)
		}},
		{"a failure surfacing mid-window", 1, func(e *lifecycleEnv) {
			// Six batches in flight; the cluster recovers before the third
			// executes, so it and everything behind it is rejected.
			all := make(chan struct{})
			e.script(1, 1, step{then: func() { <-all }})
			e.script(1, 3, step{then: func() {
				wl, _ := e.meta.BeginRecovery()
				e.meta.CompleteRecoveryFor(wl)
			}})
			for i := 0; i < 6; i++ {
				e.upsert(0)
			}
			close(all)
			var surv *core.SurvivalError
			if err := e.c.Drain(); !errors.As(err, &surv) {
				e.t.Fatalf("Drain = %v, want the SurvivalError", err)
			}
			for i := 0; i < 6; i++ {
				e.await(i)
			}
			if _, err := e.issue(wire.OpUpsert, 0); !errors.As(err, &surv) {
				e.t.Fatalf("enqueue before Acknowledge = %v, want the SurvivalError", err)
			}
			e.fired, e.status = e.fired[:6], e.status[:6] // refused at the door: no callback is owed
			e.c.Acknowledge()
			e.script(1, 1)
			e.upsert(0)
			e.settled(wantOK, wantOK, wantErr, wantErr, wantErr, wantErr, wantOK)
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sc.run(newLifecycleEnv(t, sc.batch))
		})
	}
}

// TestSettledBatchStaysSettled: nothing in the client lets go of a batch
// twice, and if an edit ever does, the second settle — or a park after the
// settle — must change nothing: no callback again, no slot released twice, no
// settled batch queued for a re-drive. The violations are counted.
func TestSettledBatchStaysSettled(t *testing.T) {
	c, err := NewClient(ClientConfig{Partitions: testPartitions, Relaxed: true}, metadata.NewStore(metadata.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fired := 0
	b := &batch{ops: make([]wire.Op, 1), cbs: []OpCallback{func(wire.OpResult) { fired++ }}}
	c.outstanding = 1 // as when b was taken out of the buffers
	c.settle(b, outcome{cause: causeRefused})
	c.settle(b, outcome{cause: causeRefused})
	c.parkOrSettle(b, causeRefused)
	if n := lifecycleViolations.Value(); n != 2 {
		t.Errorf("%d violations counted, want 2", n)
	}
	lifecycleViolations.Add(-lifecycleViolations.Value()) // wraps to zero: the other tests want none
	if fired != 1 || c.outstanding != 0 || len(c.retryQ) != 0 || c.head != nil {
		t.Fatalf("callback fired %d times, outstanding %d, %d parked, head %v; want 1, 0, 0, nil",
			fired, c.outstanding, len(c.retryQ), c.head)
	}
}
