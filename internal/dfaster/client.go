package dfaster

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/wire"
)

// OpCallback receives an operation's result when its batch completes. A nil
// callback discards the result (fire-and-forget writes).
//
// The result's Value is only valid for the duration of the callback: it
// aliases a reusable receive buffer. Parse it or copy it inside the callback;
// never retain the slice.
type OpCallback func(wire.OpResult)

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Partitions is the cluster-wide virtual partition count.
	Partitions int
	// BatchSize is b: operations are accumulated per worker and sent as a
	// batch of up to b (§7.1).
	BatchSize int
	// Window is w: the maximum number of outstanding remote operations;
	// enqueuing blocks when the window is full (§7.1).
	Window int
	// Relaxed selects relaxed DPR (the default, §5.4).
	Relaxed bool
	// LocalWorker, if set, enables co-located execution: operations on keys
	// the local worker owns run synchronously on the calling thread (§5.2).
	LocalWorker *Worker
	// OnSend, if set, is invoked on the enqueueing goroutine after sequence
	// numbers are assigned to a batch and before it is transmitted (BadOwner
	// retransmits reuse the original numbers and do not re-fire). History
	// checkers (internal/chaos) use it to associate each operation with its
	// DPR sequence number; production clients leave it nil.
	OnSend func(seqStart uint64, n int)
}

// Client is one D-FASTER client session: it batches operations per owner
// worker, pipelines up to Window outstanding operations, tracks commit
// progress, and surfaces failures as SurvivalErrors. A Client is a session —
// a sequential logical thread — so operations must be enqueued from one
// goroutine; completion runs on background reader goroutines.
type Client struct {
	cfg     ClientConfig
	meta    metadata.Service
	session *libdpr.Session

	// owners is the routing table: per partition, one plus its owner (zero: ask
	// metadata). A re-drive drops it whole by publishing an empty one.
	owners atomic.Pointer[[]atomic.Uint64]

	connsMu sync.Mutex
	conns   map[core.WorkerID]*workerConn

	// Local-path scratch: the co-located fast path runs on the session's
	// single enqueueing goroutine, so one reusable request, scratch, batch and
	// callback slot make it allocation-free.
	localSess     *kv.Session
	localScratch  *BatchScratch
	localLane     *Lane
	localReq      wire.BatchRequest
	localVersions []core.Version
	localCbs      [1]OpCallback
	localBatch    batch

	// mu guards everything below and every batch's lifecycle fields (see the
	// batch lifecycle section); a connection's sendMu is taken before it,
	// never after.
	mu          sync.Mutex
	cond        *sync.Cond
	outstanding int // window slots held: operations sent and not settled
	failure     error
	buffers     map[core.WorkerID]*batch // the batch being filled for each owner
	// free holds settled batches for reuse, with their ops and cbs arrays
	// (recycleLocked).
	free []*batch
	// retryQ holds parked batches in ascending sequence order; head is the
	// one being re-driven, and fresh sends wait while there is one.
	retryQ []*batch
	head   *batch
	// abandoned counts operations settled as errors, recent keeps the last few
	// such batches, lost is the lowest seq WaitCommitAll has yet to report.
	abandoned uint64
	recent    []abandonedOps
	lost      uint64

	// closed is cancelled by Close.
	closed context.Context
	close  context.CancelFunc
}

// NewClient builds a client session against the metadata service.
func NewClient(cfg ClientConfig, meta metadata.Service) (*Client, error) {
	if cfg.Partitions <= 0 {
		return nil, errors.New("dfaster: Partitions must be positive")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 16 * cfg.BatchSize
	}
	sess, err := libdpr.NewSession(meta, cfg.Relaxed)
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:     cfg,
		meta:    meta,
		session: sess,
		conns:   make(map[core.WorkerID]*workerConn),
		buffers: make(map[core.WorkerID]*batch),
	}
	c.forgetOwners()
	c.closed, c.close = context.WithCancel(context.Background())
	c.cond = sync.NewCond(&c.mu)
	if cfg.LocalWorker != nil {
		c.localSess = cfg.LocalWorker.Store().NewSession()
		c.localScratch = NewBatchScratch()
		c.localLane = cfg.LocalWorker.NewLane()
	}
	return c, nil
}

// Session exposes the libDPR session (commit tracking, diagnostics).
func (c *Client) Session() *libdpr.Session { return c.session }

// Close tears down connections and the local session. Parked batches settle
// as errors here; in-flight and re-driving ones as their connections die and
// their next step finds the client closed.
func (c *Client) Close() {
	c.close()
	c.mu.Lock()
	parked := c.retryQ
	c.retryQ = nil
	c.mu.Unlock()
	for _, b := range parked {
		c.settle(b, outcome{cause: causeClosed})
	}
	c.connsMu.Lock()
	for _, wc := range c.conns {
		wc.close()
	}
	c.connsMu.Unlock()
	if c.cfg.LocalWorker != nil {
		c.localSess.Close()
		c.localLane.Close()
	}
}

// Err returns the pending failure (a *core.SurvivalError after a rollback).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

// Acknowledge clears a pending SurvivalError so the session can continue on
// the new world-line. The error accounts for every operation issued before it,
// so abandoned ones among them are not reported again.
func (c *Client) Acknowledge() *core.SurvivalError {
	ack := c.session.Acknowledge()
	c.mu.Lock()
	c.failure = nil
	if ack != nil {
		c.lost = 0
	}
	c.mu.Unlock()
	return ack
}

// ---- operation enqueueing ----

// Upsert enqueues a write.
func (c *Client) Upsert(key, val []byte, cb OpCallback) error {
	return c.enqueue(wire.Op{Kind: wire.OpUpsert, Key: key, Value: val}, cb)
}

// Read enqueues a read.
func (c *Client) Read(key []byte, cb OpCallback) error {
	return c.enqueue(wire.Op{Kind: wire.OpRead, Key: key}, cb)
}

// Delete enqueues a delete.
func (c *Client) Delete(key []byte, cb OpCallback) error {
	return c.enqueue(wire.Op{Kind: wire.OpDelete, Key: key}, cb)
}

// RMW enqueues a read-modify-write (little-endian uint64 addition).
func (c *Client) RMW(key []byte, delta uint64, cb OpCallback) error {
	return c.enqueue(wire.Op{Kind: wire.OpRMW, Key: key, Value: binary.LittleEndian.AppendUint64(nil, delta)}, cb)
}

func (c *Client) enqueue(op wire.Op, cb OpCallback) error {
	owner, err := c.ownerOf(op.Key)
	if err != nil {
		return err
	}
	c.mu.Lock()
	for c.failure == nil && c.outstanding >= c.cfg.Window {
		c.cond.Wait()
	}
	if f := c.failure; f != nil {
		c.mu.Unlock()
		return f
	}
	// Co-located fast path: execute immediately on the calling thread. Settled
	// before this call returns, the operation holds no window slot, and unless
	// it fails this is the one time it takes c.mu.
	if c.cfg.LocalWorker != nil && owner == c.cfg.LocalWorker.ID() {
		c.mu.Unlock()
		return c.executeLocal(op, cb)
	}
	b := c.buffers[owner]
	if b == nil {
		if n := len(c.free); n > 0 {
			b, c.free = c.free[n-1], c.free[:n-1]
			*b = batch{ops: b.ops[:0], cbs: b.cbs[:0]} // a new lifecycle, from stQueued
		} else {
			b = &batch{ops: make([]wire.Op, 0, c.cfg.BatchSize), cbs: make([]OpCallback, 0, c.cfg.BatchSize)}
		}
		b.owner = owner
		c.buffers[owner] = b
	}
	b.ops = append(b.ops, op)
	b.cbs = append(b.cbs, cb)
	full := len(b.ops) >= c.cfg.BatchSize
	if full { // taken out to be sent: from here on its operations hold window slots
		delete(c.buffers, owner)
		c.outstanding += len(b.ops)
	}
	c.mu.Unlock()
	if full {
		return c.sendBatch(b)
	}
	return nil
}

func (c *Client) executeLocal(op wire.Op, cb OpCallback) error {
	c.localReq.Ops = append(c.localReq.Ops[:0], op)
	c.localCbs[0] = cb
	b := &c.localBatch
	*b = batch{ops: c.localReq.Ops, cbs: c.localCbs[:]}
	h, err := c.session.NextBatch(1)
	if err != nil {
		return c.settle(b, outcome{cause: causeRejected, err: err})
	}
	b.header = h
	if c.cfg.OnSend != nil {
		c.cfg.OnSend(h.SeqStart, 1)
	}
	c.localReq.Header = h
	reply, errReply := c.cfg.LocalWorker.ExecuteLocalScratch(c.localSess, &c.localReq, c.localScratch, c.localLane)
	if errReply != nil {
		out := outcome{cause: causeRefused}
		if errReply.Code == wire.ErrCodeRejected {
			out = outcome{cause: causeRejected, err: c.session.NotifyWorldLine(errReply.WorldLine)}
		}
		return cmp.Or(c.settle(b, out), error(errReply))
	}
	return c.settle(b, outcome{worker: c.cfg.LocalWorker.ID(), reply: reply, versions: &c.localVersions})
}

// Flush sends all partially filled batches.
func (c *Client) Flush() error {
	var toSend []*batch
	c.mu.Lock()
	for _, b := range c.buffers {
		toSend = append(toSend, b)
		c.outstanding += len(b.ops)
	}
	clear(c.buffers)
	c.mu.Unlock()
	var firstErr error
	for _, b := range toSend {
		if err := c.sendBatch(b); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Drain flushes and blocks until no operations are outstanding.
func (c *Client) Drain() error {
	if err := c.Flush(); err != nil {
		return err
	}
	c.mu.Lock()
	for c.outstanding > 0 && c.failure == nil {
		c.cond.Wait()
	}
	err := c.failure
	c.mu.Unlock()
	return err
}

// LastSeq returns the highest sequence number assigned on the session's
// current world-line (a rollback takes back those beyond the surviving prefix).
func (c *Client) LastSeq() uint64 { return c.session.Tracker().NextSeq() - 1 }

// Committed returns the session's committed prefix and exceptions, shared
// until they change (core.SessionTracker.Committed): it must not be modified.
func (c *Client) Committed() (uint64, []uint64) { return c.session.Committed() }

// WaitCommitAll flushes, drains, and waits until everything issued so far is
// committed or abandoned. A send never returns a delivery failure — the batch
// is re-driven first — so this is where one surfaces: a *core.AbandonedError
// naming the first operation abandoned since the last report (Committed lists
// them all as exceptions). Everything else issued so far is then committed.
func (c *Client) WaitCommitAll(timeout time.Duration) error {
	if err := c.Drain(); err != nil {
		return err
	}
	if err := c.session.WaitCommit(c.LastSeq(), timeout); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq := c.lost; seq != 0 {
		c.lost = 0
		return &core.AbandonedError{Seq: seq}
	}
	return nil
}

// ---- routing and connections ----

func (c *Client) ownerOf(key []byte) (core.WorkerID, error) {
	p := PartitionOf(key, c.cfg.Partitions)
	slot := &(*c.owners.Load())[p]
	if o := slot.Load(); o != 0 {
		return core.WorkerID(o - 1), nil
	}
	w, err := c.meta.OwnerOf(p)
	if err != nil {
		return 0, err
	}
	slot.Store(uint64(w) + 1)
	return w, nil
}

// forgetOwners makes every partition's owner metadata's to answer again.
func (c *Client) forgetOwners() {
	owners := make([]atomic.Uint64, c.cfg.Partitions)
	c.owners.Store(&owners)
}

type workerConn struct {
	id   core.WorkerID
	conn net.Conn
	bw   *bufio.Writer
	// sendMu serialises writers of bw, and with them the order batches enter
	// inflight, so the FIFO matches the order frames reach the wire.
	sendMu   sync.Mutex
	inflight []*batch // awaiting a reply, oldest first; guarded by Client.mu

	closed chan struct{}
	once   sync.Once
}

func (wc *workerConn) close() {
	wc.once.Do(func() {
		close(wc.closed)
		wc.conn.Close()
	})
}

func (c *Client) connTo(w core.WorkerID) (*workerConn, error) {
	c.connsMu.Lock()
	defer c.connsMu.Unlock()
	if err := c.closed.Err(); err != nil {
		return nil, err
	}
	if wc, ok := c.conns[w]; ok {
		select {
		case <-wc.closed:
			delete(c.conns, w)
		default:
			return wc, nil
		}
	}
	// Metadata is asked on every dial — dials are rare, and a worker restarted
	// elsewhere registers a new address that a cache here would never see.
	members, err := c.meta.Members()
	if err != nil {
		return nil, err
	}
	if members[w] == "" {
		return nil, fmt.Errorf("dfaster: no address for worker %d", w)
	}
	conn, err := net.Dial("tcp", members[w])
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	wc := &workerConn{
		id:     w,
		conn:   conn,
		bw:     bufio.NewWriterSize(conn, 1<<16),
		closed: make(chan struct{}),
	}
	c.conns[w] = wc
	go c.readLoop(wc)
	return wc, nil
}

// ---- batch lifecycle ----
//
//	queued → in-flight(conn) → { parked → re-driving }* → settled
//
// A batch has one owner at a time, every change of owner happens under c.mu,
// and settle is the only way out (DESIGN.md "Client batch lifecycle"):
//
//   - queued: in buffers, then on the enqueuing goroutine's stack.
//   - in-flight: on one connection's FIFO, then with whoever took it off —
//     the read loop popping a reply or sweeping its dead connection, or the
//     sender whose write failed, whichever got there first.
//   - parked: in retryQ, in sequence order — refused, a read stranded by a
//     dead connection, or an undeliverable frame. An older write landing
//     after a newer one to the same key silently loses the newer value, so
//     it is re-driven alone and fresh sends wait; a worker never admits what
//     was in the pipe behind a batch it refused, as it owns its partitions
//     before it accepts (AdoptWorker).
//   - re-driving: the queue's head, with its redrive goroutine, forwarded
//     whole to the owner metadata names now. The next head starts when it
//     settles or parks again.

type batchState uint8

const (
	stQueued batchState = iota
	stInFlight
	stParked
	stRedriving
	stSettled
)

// legalMoves[s] is the set of states a batch in state s may enter next.
var legalMoves = [...]uint8{
	stQueued:    1<<stInFlight | 1<<stParked | 1<<stSettled,
	stInFlight:  1<<stParked | 1<<stSettled,
	stParked:    1<<stRedriving | 1<<stSettled,
	stRedriving: 1<<stInFlight | 1<<stParked | 1<<stSettled,
	stSettled:   0,
}

type batch struct {
	owner  core.WorkerID // where to send it: the owner of its keys when it was built
	header libdpr.BatchHeader
	ops    []wire.Op
	cbs    []OpCallback

	// Guarded by Client.mu. retries counts the times the batch has parked.
	state   batchState
	retries int
}

// move is the only writer of a batch's state. The caller holds c.mu, or owns a
// batch no other goroutine has seen (the co-located operation's).
func (c *Client) move(b *batch, to batchState) bool {
	if legalMoves[b.state]&(1<<to) == 0 {
		lifecycleViolations.Inc()
		return false
	}
	b.state = to
	return true
}

var lifecycleViolations = obs.Default.Counter("dpr_client_lifecycle_violations_total",
	"Batch state transitions the client's lifecycle does not allow (a bug in internal/dfaster/client.go).")

// cause labels dpr_client_abandoned_ops_total: why operations were abandoned.
type cause string

const (
	causeStranded cause = "stranded" // reply lost with its connection, or the frame could not be delivered
	causeRefused  cause = "refused"  // no worker took ownership within retryBadOwner attempts, or an error reply
	causeRejected cause = "rejected" // issued on a world-line a rollback has ended
	causeDecode   cause = "decode"   // the reply did not parse
	causeClosed   cause = "closed"   // the client was closed first
)

// abandonedOps is one batch settled as an error.
type abandonedOps struct {
	seqStart, n uint64
	why         cause
}

// Abandoned returns how many operations this session has settled as errors
// and the last few such batches ("seq 11+1 stranded"), oldest first.
func (c *Client) Abandoned() (uint64, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	last := make([]string, len(c.recent))
	for i, r := range c.recent {
		last[i] = fmt.Sprintf("seq %d+%d %s", r.seqStart, r.n, r.why)
	}
	return c.abandoned, last
}

// outcome is what became of a batch: a reply from worker (versions is the
// caller's scratch for the results' versions), or the cause its operations
// are abandoned for and the survival error that cause surfaced, if any.
type outcome struct {
	cause    cause
	err      error
	worker   core.WorkerID
	reply    *wire.BatchReply
	versions *[]core.Version
}

// settle ends the lifecycle of b, which the caller owns, and is the only code
// that does: it tells the session what became of b's sequence numbers, fires
// the callbacks, releases the window slots, and lets the next parked batch or
// the fresh sends go. Returns the survival error the outcome surfaced, which
// is also latched as the client's failure.
func (c *Client) settle(b *batch, out outcome) error {
	// b is the caller's alone, so its state is the caller's to read: settled
	// twice, it tells the session and the callbacks nothing a second time.
	if b.state == stSettled {
		lifecycleViolations.Inc()
		return nil
	}
	lost := false // operations of b became abandoned on the session's world-line
	if out.reply != nil {
		results := out.reply.Results
		versions := slices.Grow((*out.versions)[:0], len(results))[:len(results)]
		for i := range results {
			versions[i] = results[i].Version
		}
		*out.versions = versions
		out.err = c.session.CompleteBatch(out.worker, b.header, libdpr.BatchReply{
			WorldLine: out.reply.WorldLine,
			Versions:  versions,
			Cut:       out.reply.Cut,
			CutGen:    out.reply.CutGen,
		})
		for i, cb := range b.cbs {
			if cb != nil && i < len(results) {
				cb(results[i])
			}
		}
	} else {
		if c.closed.Err() != nil {
			out.cause = causeClosed
		}
		lost = c.session.AbandonBatch(b.header) > 0
		obs.Default.Counter("dpr_client_abandoned_ops_total",
			"Operations whose callback received StatusError and whose fate the session records as unknown.",
			obs.L("cause", string(out.cause))).Add(uint64(len(b.ops)))
		for _, cb := range b.cbs {
			if cb != nil {
				cb(wire.OpResult{Status: wire.StatusError})
			}
		}
	}
	local := b == &c.localBatch
	if local && out.reply != nil && out.err == nil {
		// Started and settled on this goroutine, never shared, holding no
		// window slot: the transition is all there is, and nobody to tell.
		c.move(b, stSettled)
		return nil
	}
	c.mu.Lock()
	if c.move(b, stSettled) {
		if !local {
			c.outstanding -= len(b.ops)
		}
		if out.reply == nil {
			c.abandoned += uint64(len(b.ops))
			c.recent = append(c.recent[max(0, len(c.recent)-7):], abandonedOps{b.header.SeqStart, uint64(len(b.ops)), out.cause})
			if lost && (c.lost == 0 || b.header.SeqStart < c.lost) {
				c.lost = b.header.SeqStart
			}
		}
		c.leaveHeadLocked(b)
		c.recycleLocked(b)
	}
	c.failure = cmp.Or(c.failure, out.err)
	c.cond.Broadcast()
	c.mu.Unlock()
	return out.err
}

// recycleLocked puts a batch that has just settled on the free list, still
// settled — letting go of it twice stays an illegal move — and without the
// caller's keys, values and callbacks. The co-located operation's (part of
// the client) is not recycled. The list never outgrows what was once out
// together, Window/BatchSize in flight and one filling per owner. The caller
// holds c.mu.
func (c *Client) recycleLocked(b *batch) {
	if b != &c.localBatch {
		clear(b.ops)
		clear(b.cbs)
		c.free = append(c.free, b)
	}
}

// retryBadOwner bounds how often a batch is re-driven after a worker refused
// it or its frame could not be delivered.
const retryBadOwner = 8

// parkOrSettle parks b, which the caller owns, for an ordered re-drive, or
// settles it for why if its retries are spent or the client is closed.
func (c *Client) parkOrSettle(b *batch, why cause) {
	c.mu.Lock()
	if b.retries >= retryBadOwner || c.closed.Err() != nil {
		c.mu.Unlock()
		c.settle(b, outcome{cause: why})
		return
	}
	if !c.move(b, stParked) {
		c.mu.Unlock()
		return
	}
	b.retries++
	i := sort.Search(len(c.retryQ), func(i int) bool {
		return c.retryQ[i].header.SeqStart >= b.header.SeqStart
	})
	c.retryQ = slices.Insert(c.retryQ, i, b)
	c.leaveHeadLocked(b)
	c.mu.Unlock()
}

// leaveHeadLocked ends the re-drive of b, which has just settled or parked,
// if it was the head, and starts re-driving the next parked batch if nothing
// is being re-driven now. The caller holds c.mu.
func (c *Client) leaveHeadLocked(b *batch) {
	if b == c.head {
		c.head = nil
	}
	if c.head == nil && len(c.retryQ) > 0 {
		c.head, c.retryQ = c.retryQ[0], c.retryQ[1:]
		c.move(c.head, stRedriving)
		go c.redrive(c.head)
	}
}

// redrive forwards the retry queue's head whole to the owner metadata names
// now, after a pause that lets a restarting worker's registration land. It is
// marked Redirected, which admits it below the session fence of a worker that
// has executed later batches of the session: a stranded read arrives again
// at the worker that executed it.
func (c *Client) redrive(h *batch) {
	select {
	case <-c.closed.Done(): // the send below fails to connect and settles as closed
	case <-time.After(time.Millisecond):
	}
	c.forgetOwners() // re-route through metadata
	owner, err := c.ownerOf(h.ops[0].Key)
	if err != nil {
		c.settle(h, outcome{cause: causeRefused})
		return
	}
	h.owner = owner
	h.header.Redirected = true
	c.transmit(h)
}

// sendBatch assigns a queued batch its sequence numbers and transmits it; the
// connection's read loop settles it.
func (c *Client) sendBatch(b *batch) error {
	h, err := c.session.NextBatch(len(b.ops))
	if err != nil {
		return c.settle(b, outcome{cause: causeRejected, err: err})
	}
	b.header = h
	if c.cfg.OnSend != nil {
		c.cfg.OnSend(h.SeqStart, len(b.ops))
	}
	// While a batch is parked or re-driving, hold fresh transmissions back — a
	// fresh (higher-sequence) batch that reached a worker first would execute
	// ahead of the parked tail, breaking session order — and re-resolve the
	// owner afterwards: the re-drive has updated the routing table.
	c.mu.Lock()
	waited := c.head != nil
	for c.head != nil && c.failure == nil {
		c.cond.Wait()
	}
	c.mu.Unlock()
	if waited {
		if owner, oerr := c.ownerOf(b.ops[0].Key); oerr == nil {
			b.owner = owner
		}
	}
	c.transmit(b)
	return nil
}

// transmit hands b to its owner's connection and writes its frame. A frame
// that cannot be delivered — no connection, or the write failed, which closes
// it — parks b like a refusal, unless the read loop's sweep of the dead
// connection took b off the FIFO first: then b is that loop's.
func (c *Client) transmit(b *batch) {
	wc, err := c.connTo(b.owner)
	if err != nil {
		c.parkOrSettle(b, causeStranded)
		return
	}
	// Encode into a pooled buffer; WriteFrame copies into the bufio.Writer,
	// so the buffer can be returned as soon as the write call finishes.
	out := wire.GetBuffer()
	*out = wire.AppendBatchRequest(*out, &wire.BatchRequest{Header: b.header, Ops: b.ops})
	wc.sendMu.Lock()
	c.mu.Lock()
	c.move(b, stInFlight)
	wc.inflight = append(wc.inflight, b)
	c.mu.Unlock()
	err = wire.WriteFrame(wc.bw, wire.FrameBatchRequest, *out)
	if err == nil {
		err = wc.bw.Flush()
	}
	wc.sendMu.Unlock()
	wire.PutBuffer(out)
	if err == nil {
		return
	}
	// bufio errors are sticky from the first failed flush: no whole frame of
	// b reached the worker.
	wc.close()
	c.mu.Lock()
	i := slices.Index(wc.inflight, b)
	if i >= 0 {
		wc.inflight = slices.Delete(wc.inflight, i, i+1)
	}
	c.mu.Unlock()
	if i >= 0 {
		c.parkOrSettle(b, causeStranded)
	}
}

// readLoop settles replies for one connection in FIFO order. The loop is
// allocation-free in steady state: frames land in the FrameReader's pooled
// buffer, the reply shell and versions scratch are reused, and result values
// alias the frame (callbacks fire before the next frame overwrites it).
func (c *Client) readLoop(wc *workerConn) {
	fr := wire.NewFrameReader(bufio.NewReaderSize(wc.conn, 1<<16))
	defer fr.Close()
	var reply wire.BatchReply
	var versions []core.Version
	var adv wire.CutAdvance
	// A worker sends the cut it pre-encoded last with every frame: the memo
	// lets one through to the session when its bytes change (nil otherwise).
	var memo wire.CutMemo
	for {
		tag, payload, err := fr.Read()
		if err != nil {
			break
		}
		// Unsolicited cut-advance pushes are not replies: they can arrive at
		// any point between reply frames and must be handled before the
		// in-flight pop, or they would consume (and error out) a batch whose
		// real reply is still in the pipe.
		if tag == wire.FrameCutAdvance {
			if memo.DecodeCutAdvance(&adv, payload) == nil && adv.Cut != nil {
				if err := c.session.ObserveCut(adv.WorldLine, adv.Cut); err != nil {
					c.recordFailure(err)
				}
			}
			continue
		}
		c.mu.Lock()
		if len(wc.inflight) == 0 {
			c.mu.Unlock()
			break // protocol violation
		}
		b := wc.inflight[0]
		wc.inflight = slices.Delete(wc.inflight, 0, 1) // in place: the FIFO's array neither creeps nor regrows
		c.mu.Unlock()

		switch {
		case tag == wire.FrameBatchReply && memo.DecodeBatchReply(&reply, payload) == nil:
			c.settle(b, outcome{worker: wc.id, reply: &reply, versions: &versions})
		case tag == wire.FrameError:
			c.handleErrorReply(b, payload)
		default:
			c.settle(b, outcome{cause: causeDecode})
		}
	}
	wc.close()
	// Batches still in flight may or may not have executed. Reads are
	// side-effect-free and park for a re-drive through metadata, which keeps
	// live sessions reading across a member draining out of the cluster;
	// retransmitting a write risks a double execution, so it is abandoned.
	c.mu.Lock()
	stranded := wc.inflight
	wc.inflight = nil
	c.mu.Unlock()
	for _, b := range stranded {
		if !slices.ContainsFunc(b.ops, func(op wire.Op) bool { return op.Kind != wire.OpRead }) {
			c.parkOrSettle(b, causeStranded)
		} else {
			c.settle(b, outcome{cause: causeStranded})
		}
	}
}

func (c *Client) handleErrorReply(b *batch, payload []byte) {
	er, err := wire.DecodeError(payload)
	switch {
	case err != nil:
		c.settle(b, outcome{cause: causeDecode})
	case er.Code == wire.ErrCodeBadOwner:
		// An ownership miss: the same sequence numbers travel to the owner
		// metadata names now.
		c.parkOrSettle(b, causeRefused)
	case er.Code == wire.ErrCodeRejected:
		c.settle(b, outcome{cause: causeRejected, err: c.session.NotifyWorldLine(er.WorldLine)})
	default:
		c.settle(b, outcome{cause: causeRefused})
	}
}

func (c *Client) recordFailure(err error) {
	c.mu.Lock()
	c.failure = cmp.Or(c.failure, err)
	c.cond.Broadcast()
	c.mu.Unlock()
}
