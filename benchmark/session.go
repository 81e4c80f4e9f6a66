package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/wire"
	"dpr/internal/workload"
)

// Run phases. Sessions issue traffic in all of them; only operations issued
// (and completions seen) in phaseMeasure are counted.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// liveRun is the state shared by the sessions of one measured window.
type liveRun struct {
	spec    *workloadSpec
	cluster *testCluster
	phase   atomic.Int32
	inj     *injector // crash_recover only
	traced  bool
}

// opSlot carries one in-flight operation: the key and value bytes the client
// aliases until the batch is encoded, and what the completion callback needs.
// Slots live in a ring sized past the most operations a session can have
// buffered plus outstanding, and each slot's callback is bound once, so the
// load generator allocates nothing per operation.
type opSlot struct {
	key, val [8]byte
	t0       int64 // issue (closed loop) or due (open loop) time; 0 = unsampled
	busy     atomic.Bool
	read     bool
	inWindow bool
	resume   int   // ordinal of the failure this op is the first issued after
	widx     int32 // crash_recover: index of the write's fate record
	cb       dfaster.OpCallback
}

// commitEntry is a run of consecutive sampled sequence numbers issued at t0
// to one shard, waiting to be seen committed.
type commitEntry struct {
	lo, hi uint64
	t0     int64
	shard  int
	probe  int // ordinal of the failure this entry is the recovery probe of
}

// chainSample is one commit observation kept for the traced run's commit
// chain join: ops issued at t0 on shard were seen committed at t4.
type chainSample struct {
	t0, t4 int64
	shard  int
	n      int64
}

type session struct {
	id     int
	run    *liveRun
	client *dfaster.Client
	np     *napper
	gen    *workload.Generator
	// keys, when set, is the key set generated indexes map into: the
	// co-located shard's keys, or the session's crash_recover stripe.
	keys [][8]byte
	fate *fateChecker

	slots []opSlot
	next  int
	// pend lists, per shard, the slots buffered in the client in the order
	// their batch will carry them; cur is the shard of the operation being
	// enqueued. Together they let the OnSend hook give every operation its
	// sequence number.
	pend     [shards][]int32
	cur      int
	draining bool

	cq     []commitEntry
	cqHead int
	holes  []commitEntry
	polled int64

	// Recovery tracking (crash_recover). armed is the ordinal of the newest
	// acknowledged failure that has no probe batch yet.
	armed      int
	resumeNext int
	recovery   map[int]int64 // failure ordinal -> OnFailure() call to probe committed
	resumed    map[int]int64 // failure ordinal -> OnFailure() return to first completion

	attempted    int64
	okAttempted  atomic.Int64
	doneInWindow atomic.Int64
	wrongReads   atomic.Int64
	bookkeeping  atomic.Int64
	resumedAt    atomic.Int64 // packed by the completion callback, folded by the issuer

	opLat, commitLat, late *samples
	chain                  []chainSample
	err                    error
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func newSession(id int, run *liveRun, seed int64, seconds float64) (*session, error) {
	spec := run.spec
	s := &session{id: id, run: run}
	s.slots = make([]opSlot, nextPow2(2*(spec.window+4*spec.batch)))
	for i := range s.slots {
		i := i
		s.slots[i].cb = func(r wire.OpResult) { s.complete(i, r) }
	}
	for sh := range s.pend {
		s.pend[sh] = make([]int32, 0, 2*spec.batch)
	}

	nkeys := preloadKeys
	if s.keys = sessionKeys(spec, id); s.keys != nil {
		nkeys = int64(len(s.keys))
	}
	s.gen = workload.NewGenerator(workload.Config{
		Keys: nkeys, ReadFraction: spec.readFrac, Dist: spec.dist, Theta: 0.99,
		Seed: seed*7919 + int64(id),
	})

	// Sample stores are sized for the whole window at a generous rate so add
	// never drops; dropped counts are checked at the end.
	perSec := 2_000_000 / spec.sampleEvery
	if spec.paced {
		perSec = 2 * pacedPerSlot * int(time.Second/pacedSlot)
	}
	capacity := int(float64(perSec)*(seconds+1)) + 1024
	s.opLat = newSamples(capacity)
	s.commitLat = newSamples(capacity)
	s.late = newSamples(int((seconds+1)*float64(time.Second/pacedSlot)) + 1024)
	if run.traced {
		s.chain = make([]chainSample, 0, 1<<18)
	}
	if spec.crash {
		s.fate = newFateChecker(id, int(float64(perSec)*(seconds+warmup.Seconds()+drainLimit.Seconds()+2)))
		s.recovery = make(map[int]int64)
		s.resumed = make(map[int]int64)
	}

	cfg := dfaster.ClientConfig{
		Partitions: partitions, BatchSize: spec.batch, Window: spec.window,
		Relaxed: true, OnSend: s.onSend,
	}
	if spec.colocated {
		cfg.LocalWorker = run.cluster.fworkers[id]
	}
	var err error
	if s.np, err = newNapper(); err != nil {
		return nil, err
	}
	if s.client, err = dfaster.NewClient(cfg, run.cluster.svc); err != nil {
		s.np.close()
		return nil, err
	}
	return s, nil
}

func (s *session) close() {
	s.client.Close()
	s.np.close()
}

// sessionKeys returns the key set session id's generated indexes map into:
// the co-located shard's keys, the session's crash_recover stripe, or nil
// when the generated keys are used as they come.
func sessionKeys(spec *workloadSpec, id int) [][8]byte {
	var keys [][8]byte
	switch {
	case spec.colocated:
		for i := int64(0); i < preloadKeys; i++ {
			if k := workload.KeyAt(i); shardOf(k[:]) == id {
				keys = append(keys, k)
			}
		}
	case spec.crash:
		for i := 0; i < stripeKeys; i++ {
			keys = append(keys, workload.KeyAt(int64(i*sessions+id)))
		}
	}
	return keys
}

func keyIndex(op workload.Op) int32 { return int32(binary.LittleEndian.Uint64(op.Key[:])) }

// key returns the key a generated operation addresses.
func (s *session) key(op workload.Op) (int32, [8]byte) {
	if s.keys == nil {
		return 0, op.Key
	}
	i := keyIndex(op)
	return i, s.keys[i]
}

// issue enqueues one operation. t0 is its issue or due time when sampled, 0
// otherwise. On crash_recover an error is an injected failure surfacing; it
// is digested and the operation counts as erased. Anywhere else it ends the
// run.
func (s *session) issue(op workload.Op, t0 int64, measuring bool) {
	kidx, key := s.key(op)
	i := s.next
	for tries := 0; s.slots[i].busy.Load(); tries++ {
		if tries == len(s.slots) {
			s.fail(errors.New("slot ring exhausted: operations are not completing"))
			return
		}
		s.bookkeeping.Add(1) // the ring is sized so the next slot is always free
		i = (i + 1) & (len(s.slots) - 1)
	}
	s.next = (i + 1) & (len(s.slots) - 1)
	sl := &s.slots[i]
	sl.key, sl.t0, sl.inWindow = key, t0, measuring
	sl.read = op.Kind == workload.OpRead
	sl.resume, s.resumeNext = s.resumeNext, 0
	sl.busy.Store(true)
	sh := s.id
	if !s.run.spec.colocated {
		sh = shardOf(key[:])
	}
	s.cur = sh
	s.pend[sh] = append(s.pend[sh], int32(i))
	if measuring {
		s.attempted++
	}
	var err error
	switch {
	case sl.read:
		err = s.client.Read(sl.key[:], sl.cb)
	case s.fate != nil:
		sl.widx = s.fate.begin(kidx, measuring)
		sl.val = s.fate.payload(sl.widx)
		err = s.client.Upsert(sl.key[:], sl.val[:], sl.cb)
	default:
		sl.val = workload.Value8(key)
		err = s.client.Upsert(sl.key[:], sl.val[:], sl.cb)
	}
	if err != nil {
		s.onError(err, i)
	}
}

func (s *session) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// onSend is the client's OnSend hook: the batch being sent carries exactly
// the operations pending for the current shard, in order, numbered from
// seqStart. Sampled operations join the commit queue here.
func (s *session) onSend(seqStart uint64, n int) {
	if s.draining {
		// The final flush sends one partial batch per shard in map order;
		// nothing in them is sampled any more.
		for sh := range s.pend {
			s.pend[sh] = s.pend[sh][:0]
		}
		return
	}
	p := s.pend[s.cur]
	s.pend[s.cur] = p[:0]
	if len(p) != n {
		s.bookkeeping.Add(1)
		return
	}
	probe := 0
	if s.armed != 0 {
		probe, s.armed = s.armed, 0
	}
	for j, idx := range p {
		sl := &s.slots[idx]
		seq := seqStart + uint64(j)
		if s.fate != nil && !sl.read {
			s.fate.sent(sl.widx, seq)
		}
		if sl.t0 == 0 && probe == 0 {
			continue
		}
		if last := len(s.cq) - 1; last >= s.cqHead && probe == 0 &&
			s.cq[last].hi+1 == seq && s.cq[last].t0 == sl.t0 && s.cq[last].shard == s.cur && s.cq[last].probe == 0 {
			s.cq[last].hi = seq
			continue
		}
		s.cq = append(s.cq, commitEntry{lo: seq, hi: seq, t0: sl.t0, shard: s.cur, probe: probe})
		probe = 0
	}
}

// complete is every operation's completion callback. It runs on the
// client's reader goroutines (inline for co-located operations).
func (s *session) complete(i int, r wire.OpResult) {
	sl := &s.slots[i]
	ok := r.Status != wire.StatusError
	switch {
	case !ok:
	case sl.read:
		// Every key is preloaded and every upsert rewrites Value8(key).
		want := workload.Value8(sl.key)
		if r.Status != wire.StatusOK || string(r.Value) != string(want[:]) {
			s.wrongReads.Add(1)
			ok = false
		}
	case s.fate != nil:
		ok = s.fate.complete(sl.widx, ok, r.Version)
	}
	if ok {
		if sl.inWindow {
			s.okAttempted.Add(1)
		}
		t := int64(0)
		if sl.t0 != 0 || sl.resume != 0 {
			t = now()
		}
		if s.run.phase.Load() == phaseMeasure {
			s.doneInWindow.Add(1)
		}
		if sl.t0 != 0 {
			s.opLat.add(t - sl.t0)
		}
		if sl.resume != 0 {
			s.resumedAt.Store(int64(sl.resume)<<48 | t)
		}
	}
	sl.busy.Store(false)
}

// pollCommit reads the session's committed prefix and folds it into the
// commit queue. The benchmark never calls RefreshCommit, so commits are
// learned only through piggybacked cuts and pushed cut-advance frames, as a
// real session learns them.
func (s *session) pollCommit(t int64) (prefix uint64, exc []uint64) {
	s.polled = t
	prefix, exc = s.client.Committed()
	if s.fate != nil {
		s.fate.markCommitted(prefix, exc)
		if v := s.resumedAt.Swap(0); v != 0 {
			if f, at := int(v>>48), v&(1<<48-1); s.resumed[f] == 0 {
				s.resumed[f] = at - s.run.inj.get(f).ret
			}
		}
	}
	s.foldCommits(prefix, exc, t)
	return prefix, exc
}

// foldCommits applies one observation of (prefix, exceptions) at time t: a
// queued operation is committed iff its sequence number is at or below the
// prefix and not in the (ascending) exception list, and t is then the first
// time the issuing goroutine saw it so. Exceptions inside the prefix wait in
// holes until a later observation clears them.
func (s *session) foldCommits(prefix uint64, exc []uint64, t int64) {
	kept := s.holes[:0]
	for _, h := range s.holes {
		if h.lo <= prefix && !containsSeq(exc, h.lo) {
			s.committed(h, 1, t)
		} else {
			kept = append(kept, h)
		}
	}
	s.holes = kept
	for s.cqHead < len(s.cq) {
		e := &s.cq[s.cqHead]
		if e.lo > prefix {
			break
		}
		hi := min(e.hi, prefix)
		n := int64(hi - e.lo + 1)
		for _, x := range exc {
			if x >= e.lo && x <= hi {
				s.holes = append(s.holes, commitEntry{lo: x, hi: x, t0: e.t0, shard: e.shard})
				n--
			}
		}
		s.committed(*e, n, t)
		if hi < e.hi {
			e.lo, e.probe = hi+1, 0
			break
		}
		s.cqHead++
	}
	if s.cqHead > 4096 && s.cqHead*2 > len(s.cq) {
		s.cq = s.cq[:copy(s.cq, s.cq[s.cqHead:])]
		s.cqHead = 0
	}
}

func (s *session) committed(e commitEntry, n, t int64) {
	if e.probe != 0 && n > 0 && s.recovery[e.probe] == 0 {
		s.recovery[e.probe] = t - s.run.inj.get(e.probe).call
	}
	if e.t0 == 0 {
		return
	}
	for i := int64(0); i < n; i++ {
		s.commitLat.add(t - e.t0)
	}
	if s.chain != nil && n > 0 && len(s.chain) < cap(s.chain) {
		s.chain = append(s.chain, chainSample{t0: e.t0, t4: t, shard: e.shard, n: n})
	}
}

// onError handles an error from enqueueing or flushing. i is the slot of the
// operation being enqueued, or -1 from a flush.
func (s *session) onError(err error, i int) {
	var surv *core.SurvivalError
	if s.fate == nil || !errors.As(err, &surv) {
		s.fail(fmt.Errorf("session %d: %w", s.id, err))
		return
	}
	// While the failure is unacknowledged every send is refused, so a flush
	// resolves whatever is still buffered as errors: those operations were
	// never sent and never executed.
	_ = s.client.Flush()
	for sh := range s.pend {
		for _, idx := range s.pend[sh] {
			s.fate.drop(s.slots[idx].widx)
		}
		s.pend[sh] = s.pend[sh][:0]
	}
	if i >= 0 && s.slots[i].busy.Load() {
		s.slots[i].busy.Store(false) // refused before it was buffered: no callback will come
	}
	ack := s.client.Acknowledge()
	if ack == nil {
		return
	}
	cutMax := recoveredCutMax(s.run.cluster.svc, s.fate.lastWL, ack.WorldLine)
	s.fate.lastWL = ack.WorldLine
	s.fate.onFailure(ack, cutMax)
	// Sequence numbers beyond the surviving prefix are reissued on the new
	// world-line; their queued commit samples died with them.
	kept := s.cq[:s.cqHead]
	for _, e := range s.cq[s.cqHead:] {
		if e.lo > ack.SurvivingPrefix {
			continue
		}
		if e.hi > ack.SurvivingPrefix {
			e.hi = ack.SurvivingPrefix
		}
		kept = append(kept, e)
	}
	s.cq = kept
	holes := s.holes[:0]
	for _, h := range s.holes {
		if h.lo <= ack.SurvivingPrefix && !containsSeq(ack.Exceptions, h.lo) {
			holes = append(holes, h)
		}
	}
	s.holes = holes
	if n := s.run.inj.count(); n != 0 && s.recovery[n] == 0 {
		s.armed, s.resumeNext = n, n
	}
}

// runClosed is the closed loop: the session's next operation is enqueued as
// soon as the window admits it.
func (s *session) runClosed() {
	every := s.run.spec.sampleEvery
	for n := 0; s.err == nil; n++ {
		ph := s.run.phase.Load()
		if ph == phaseStop {
			return
		}
		measuring := ph == phaseMeasure
		t0 := int64(0)
		if n%32 == 0 || (measuring && n%every == 0) {
			t := now()
			if t-s.polled >= int64(commitPoll) {
				s.pollCommit(t)
				// A co-located session never blocks, and two of them hold
				// both processors of the reference host: timers and the
				// commit plane's goroutines would then run only when the
				// scheduler preempts (every 10 ms), and commit latency would
				// measure that quantum. Yield at every commit check, as an
				// application thread that does anything else would.
				runtime.Gosched()
			}
			if measuring && n%every == 0 {
				t0 = t
			}
		}
		s.issue(s.gen.Next(), t0, measuring)
	}
}

// napper sleeps with sub-millisecond precision. The Go runtime's own timers
// are only good to a millisecond when the process is otherwise idle (it parks
// in epoll_wait, whose timeout is in whole milliseconds), and a thread
// blocked in nanosleep(2) has to win back a processor when it returns, which
// under load costs milliseconds. A timerfd read through the runtime's poller
// wakes the goroutine the way a network event does, within ~0.1 ms. That is
// fine enough to pace 1 ms slots and to check commits every 0.25 ms. Linux,
// 64-bit.
type napper struct {
	fd uintptr
	f  *os.File
}

func newNapper() (*napper, error) {
	const clockMonotonic, tfdNonblock = 1, 0x800
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &napper{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// nap blocks the calling goroutine for ns nanoseconds.
func (n *napper) nap(ns int64) {
	if ns <= 0 {
		return
	}
	// struct itimerspec: {interval, value}, each {sec, nsec}; one shot.
	its := [4]int64{2: ns / 1e9, 3: ns % 1e9}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, n.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		time.Sleep(time.Duration(ns))
		return
	}
	var expirations [8]byte
	if _, err := n.f.Read(expirations[:]); err != nil {
		time.Sleep(time.Duration(ns))
	}
}

func (n *napper) close() { n.f.Close() }

// pace calls slot(due) for due = start, start+every, ... until it returns
// false. It never skips or shifts a due time: after a stall the slots that
// were due during it run back to back, each still carrying its original due
// time, so the stall is charged to the operations it delayed. idle is called
// while waiting, at least every commitPoll.
func pace(np *napper, start, every int64, idle func(t int64), slot func(due int64) bool) {
	for due := start; ; due += every {
		for {
			t := now()
			idle(t)
			if t >= due {
				break
			}
			np.nap(min(due-t, int64(commitPoll)))
		}
		if !slot(due) {
			return
		}
	}
}

// runPaced is the open loop: pacedPerSlot upserts fall due at the start of
// every slot, are enqueued grouped by shard with a flush after each group (so
// a flush only ever sends one shard's partial batch and OnSend can attribute
// it), and are timed from the due time.
func (s *session) runPaced() {
	var ops [pacedPerSlot]workload.Op
	pace(s.np, now(), int64(pacedSlot),
		func(t int64) {
			if t-s.polled >= int64(commitPoll) {
				s.pollCommit(t)
			}
		},
		func(due int64) bool {
			ph := s.run.phase.Load()
			if ph == phaseStop || s.err != nil {
				return false
			}
			measuring := ph == phaseMeasure
			if measuring {
				s.late.add(now() - due)
			}
			for i := range ops {
				ops[i] = s.gen.Next()
			}
			t0 := int64(0)
			if measuring {
				t0 = due
			}
			for sh := 0; sh < shards; sh++ {
				for i := range ops {
					if _, k := s.key(ops[i]); shardOf(k[:]) == sh {
						s.issue(ops[i], t0, measuring)
					}
				}
				s.cur = sh
				if err := s.client.Flush(); err != nil {
					s.onError(err, -1)
				}
			}
			return true
		})
}

// finish ends the session's traffic: drain (bounded), then wait until
// everything issued is committed with no exception, polling Committed() as
// during the run. A co-located session has no connection to be pushed cuts
// over and learns commits only from its own replies, so it keeps issuing
// unmeasured reads while it waits, as an application thread would.
func (s *session) finish() (settled bool) {
	s.draining = true
	done := make(chan error, 1)
	go func() { done <- s.client.Drain() }()
	deadline := time.Now().Add(drainLimit)
	for drained := false; !drained; {
		select {
		case err := <-done:
			if err == nil {
				drained = true
				break
			}
			var surv *core.SurvivalError
			if s.fate == nil || !errors.As(err, &surv) {
				s.fail(fmt.Errorf("session %d drain: %w", s.id, err))
				return false
			}
			s.onError(err, -1)
			go func() { done <- s.client.Drain() }()
		case <-time.After(time.Until(deadline)):
			s.fail(fmt.Errorf("session %d: operations still outstanding %v after the window", s.id, drainLimit))
			return false
		}
	}
	end := s.client.LastSeq()
	for time.Now().Before(deadline.Add(drainLimit)) {
		if p, exc := s.pollCommit(now()); p >= end && len(exc) == 0 {
			return s.fate == nil || s.fate.unsettled() == 0
		}
		if s.run.spec.colocated {
			s.issue(workload.Op{Kind: workload.OpRead}, 0, false)
		}
		s.np.nap(int64(commitPoll))
	}
	return false
}

// readback reads every stripe key once and hands the results to the fate
// checker (crash_recover, after the last recovery has settled).
func (s *session) readback() {
	s.fate.prepareReadback(len(s.keys))
	for i := range s.keys {
		i, key := int32(i), s.keys[i]
		err := s.client.Read(s.keys[i][:], func(r wire.OpResult) {
			if r.Status == wire.StatusError {
				s.fate.observe(i, key, false, nil)
				return
			}
			s.fate.observe(i, key, r.Status == wire.StatusOK, r.Value)
		})
		if err != nil {
			s.fail(fmt.Errorf("session %d read-back: %w", s.id, err))
			return
		}
	}
	if err := s.client.Drain(); err != nil {
		s.fail(fmt.Errorf("session %d read-back: %w", s.id, err))
	}
}
