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
// A remote operation's callback fires on the goroutine that settles its batch
// — the connection's read loop, or the one that gave the batch up — before
// the session's owner takes the batch in; a co-located one fires on the owner,
// inside the enqueueing call. A callback must not call the client, whose
// methods are the owner's, but may hand the result to the owner, which may
// then ask Err or WaitCommit at once: both take in what the connections handed
// it, and a world-line an error reply named is handed over before that
// batch's callbacks fire.
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
// a sequential logical thread — so every method is its owner's, the one
// goroutine that issues its operations (libdpr.Session). Replies are read and
// settled on background goroutines, one per connection, which hand the
// settled batches to the owner under c.mu; the owner takes them in at its next
// call (DESIGN.md "Client batch lifecycle").
type Client struct {
	cfg     ClientConfig
	meta    metadata.Service
	session *libdpr.Session

	// owners is the routing table: per partition, one plus its owner (zero: ask
	// metadata). A re-drive drops it whole by publishing an empty one.
	owners atomic.Pointer[[]atomic.Uint64]

	// The owner's alone, below: the co-located path's scratch (one reusable
	// request, scratch, batch, callback slot and RMW delta make it
	// allocation-free), the batches being filled, the free list, what
	// Abandoned reports, and its halves of the hand-off's double buffers.
	localSess     *kv.Session
	localScratch  *BatchScratch
	localLane     *Lane
	localReq      wire.BatchRequest
	localVersions [1]core.Version
	localParts    [1]uint64
	localDelta    [8]byte
	buffers       map[core.WorkerID]*batch // the batch being filled for each owner
	// free holds settled batches the owner has taken in, for reuse with their
	// arrays (recycle).
	free []*batch
	// abandoned counts operations settled as errors, recent keeps the last few
	// such batches.
	abandoned uint64
	recent    []abandonedOps
	spare     []*batch
	spareCut  core.Cut

	// posted is set with anything left in the hand-off and cleared when the
	// owner takes it in: the owner's whole check when nothing waits, with no
	// lock.
	posted atomic.Bool

	// mu guards everything below and every batch's lifecycle fields (see the
	// batch lifecycle section); a connection's sendMu is taken before it,
	// never after.
	mu          sync.Mutex
	conns       map[core.WorkerID]*workerConn
	outstanding int // window slots held: operations sent and not settled
	// retryQ holds parked batches in ascending sequence order; head is the
	// one being re-driven, and fresh sends wait while there is one.
	retryQ []*batch
	head   *batch
	// The hand-off to the owner (takeIn): batches settled since it last
	// looked, in the order they settled; the cuts replies and pushes carried,
	// merged into one (keepCutLocked); the newest world-line a push or an
	// error reply named.
	settled []*batch
	cut     core.Cut
	cutWL   core.WorldLine
	hasCut  bool
	notice  core.WorldLine
	// parked is set while the owner sleeps on wake, which holds at most one
	// signal: the next hand-off sends it.
	parked bool
	wake   chan struct{}

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
		wake:    make(chan struct{}, 1),
	}
	c.forgetOwners()
	c.closed, c.close = context.WithCancel(context.Background())
	if cfg.LocalWorker != nil {
		c.localSess = cfg.LocalWorker.Store().NewSession()
		c.localScratch = NewBatchScratch()
		c.localLane = cfg.LocalWorker.NewSessionLane(c.localSess)
	}
	return c, nil
}

// Session exposes the libDPR session (commit tracking, diagnostics). Its
// calls are the owner's; what the connections handed the client reaches it at
// the client's next call.
func (c *Client) Session() *libdpr.Session { return c.session }

// Close tears down connections and the local session; like the operations, it
// is the owner's to call. Parked batches settle as errors here; in-flight and
// re-driving ones as their connections die and their next step finds the
// client closed.
func (c *Client) Close() {
	c.close()
	c.mu.Lock()
	parked := c.retryQ
	c.retryQ = nil
	c.mu.Unlock()
	for _, b := range parked {
		c.settle(b, outcome{cause: causeClosed})
	}
	c.mu.Lock()
	for _, wc := range c.conns {
		wc.close()
	}
	c.mu.Unlock()
	if c.cfg.LocalWorker != nil {
		c.localSess.Close()
		c.localLane.Close()
	}
}

// Err returns the pending failure (a *core.SurvivalError after a rollback),
// taking in first what the connections handed the owner: a rollback one of
// them announced — a batch rejected with a newer world-line, whose callback
// has seen StatusError — is this call's SurvivalError.
func (c *Client) Err() error { return c.take() }

// Acknowledge clears a pending SurvivalError so the session can continue on
// the new world-line. The error accounts for every operation issued before it,
// so abandoned ones among them are not reported again.
func (c *Client) Acknowledge() *core.SurvivalError { return c.session.Acknowledge() }

// take has the owner take in the hand-off, if anything waits there, and
// returns the session's failure (libdpr.Session.Poll).
func (c *Client) take() error {
	if c.posted.Load() {
		return c.takeIn()
	}
	return c.session.Poll()
}

// takeIn digests the hand-off on the owner: the settled batches in the order
// they settled — a reply on the session's world-line completes its operations,
// an abandon is recorded for Abandoned — then the newest world-line one of
// them or a push named (the failure path, with its metadata calls), then the
// merged cut. The batches go on the free list. Returns take's error.
func (c *Client) takeIn() error {
	c.mu.Lock()
	settled, cut, cutWL, hasCut, notice := c.settled, c.cut, c.cutWL, c.hasCut, c.notice
	c.settled, c.cut, c.hasCut, c.notice = c.spare, c.spareCut, false, 0
	c.posted.Store(false)
	c.mu.Unlock()
	wl := c.session.Tracker().WorldLine()
	for _, b := range settled {
		switch {
		case b.cause != "":
			c.session.Abandon(b.header)
			c.noteAbandoned(b.header.SeqStart, len(b.ops), b.cause)
		case b.wl == wl: // a reply from another world-line describes erased executions, or announces a rollback
			_ = c.session.CompleteBatch(b.worker, b.header, libdpr.BatchReply{WorldLine: b.wl, Versions: b.versions})
		}
		notice = max(notice, b.wl)
		c.recycle(b)
	}
	clear(settled)
	c.spare = settled[:0]
	err := c.session.NotifyWorldLine(notice)
	if hasCut && err == nil {
		err = c.session.FoldCut(cutWL, cut)
	}
	clear(cut)
	c.spareCut = cut
	if err != nil {
		return err
	}
	return c.session.Poll()
}

// ---- operation enqueueing ----

// Upsert enqueues a write.
func (c *Client) Upsert(key, val []byte, cb OpCallback) error {
	return c.enqueue(wire.Op{Kind: wire.OpUpsert, Key: key, Value: val}, 0, cb)
}

// Read enqueues a read.
func (c *Client) Read(key []byte, cb OpCallback) error {
	return c.enqueue(wire.Op{Kind: wire.OpRead, Key: key}, 0, cb)
}

// Delete enqueues a delete.
func (c *Client) Delete(key []byte, cb OpCallback) error {
	return c.enqueue(wire.Op{Kind: wire.OpDelete, Key: key}, 0, cb)
}

// RMW enqueues a read-modify-write (little-endian uint64 addition).
func (c *Client) RMW(key []byte, delta uint64, cb OpCallback) error {
	return c.enqueue(wire.Op{Kind: wire.OpRMW, Key: key}, delta, cb)
}

// enqueue adds op to its owner's batch, or runs it co-located. An RMW's
// delta is encoded into bytes the batch owns, or the co-located scratch.
func (c *Client) enqueue(op wire.Op, delta uint64, cb OpCallback) error {
	p := PartitionOf(op.Key, c.cfg.Partitions)
	owner, err := c.ownerOfPartition(p)
	if err != nil {
		return err
	}
	if err := c.take(); err != nil {
		return err
	}
	// Co-located fast path: execute immediately on the calling thread. Settled
	// before this call returns, the operation holds no window slot and takes
	// no lock.
	if c.cfg.LocalWorker != nil && owner == c.cfg.LocalWorker.ID() {
		if op.Kind == wire.OpRMW {
			op.Value = binary.LittleEndian.AppendUint64(c.localDelta[:0], delta)
		}
		return c.executeLocal(op, p, cb)
	}
	c.mu.Lock()
	err = c.waitLocked(func() bool { return c.outstanding < c.cfg.Window })
	c.mu.Unlock()
	if err != nil {
		return err
	}
	b := c.buffers[owner]
	if b == nil {
		if n := len(c.free); n > 0 {
			b, c.free = c.free[n-1], c.free[:n-1]
			*b = batch{ops: b.ops[:0], cbs: b.cbs[:0], deltas: b.deltas[:0], versions: b.versions} // a new lifecycle, from stQueued
		} else {
			b = &batch{ops: make([]wire.Op, 0, c.cfg.BatchSize), cbs: make([]OpCallback, 0, c.cfg.BatchSize)}
		}
		b.owner = owner
		c.buffers[owner] = b
	}
	if op.Kind == wire.OpRMW {
		n := len(b.deltas)
		b.deltas = binary.LittleEndian.AppendUint64(b.deltas, delta)
		op.Value = b.deltas[n:]
	}
	b.ops = append(b.ops, op)
	b.cbs = append(b.cbs, cb)
	if len(b.ops) < c.cfg.BatchSize {
		return nil
	}
	delete(c.buffers, owner)
	return c.sendBatch(b)
}

// executeLocal runs op, whose key is in partition p, on the co-located
// worker, and settles it on the owner: the session's completion and the
// callback, or an abandon (abandonLocal).
//
//dpr:noalloc
func (c *Client) executeLocal(op wire.Op, p uint64, cb OpCallback) error {
	c.localReq.Ops = append(c.localReq.Ops[:0], op)
	h, err := c.session.NextBatch(1)
	if err != nil {
		c.abandonLocal(h, cb, causeRejected)
		return err
	}
	if c.cfg.OnSend != nil {
		c.cfg.OnSend(h.SeqStart, 1)
	}
	c.localReq.Header = h
	c.localParts[0] = p
	c.localScratch.apply.parts = c.localParts[:] // the key is hashed once
	reply, errReply := c.cfg.LocalWorker.ExecuteLocalScratch(c.localSess, &c.localReq, c.localScratch, c.localLane)
	c.localScratch.apply.parts = nil
	if errReply != nil {
		return c.refusedLocal(h, cb, errReply)
	}
	c.localVersions[0] = reply.Results[0].Version
	err = c.session.CompleteBatch(c.cfg.LocalWorker.ID(), h, libdpr.BatchReply{
		WorldLine: reply.WorldLine,
		Versions:  c.localVersions[:],
		Cut:       reply.Cut,
		CutGen:    reply.CutGen,
	})
	if cb != nil {
		cb(reply.Results[0])
	}
	return err
}

// refusedLocal settles the co-located operation the worker refused with
// errReply and returns the error: the survival error of the rollback it
// announced, or the refusal.
func (c *Client) refusedLocal(h libdpr.BatchHeader, cb OpCallback, errReply *wire.ErrorReply) error {
	why := causeRefused
	var err error
	if errReply.Code == wire.ErrCodeRejected {
		why, err = causeRejected, c.session.NotifyWorldLine(errReply.WorldLine)
	}
	c.abandonLocal(h, cb, why)
	return cmp.Or(err, error(errReply))
}

// abandonLocal settles the co-located operation issued with header h (zero
// if it got none) as abandoned for why, on the owner: the session hears of it
// at once, and the callback sees StatusError.
func (c *Client) abandonLocal(h libdpr.BatchHeader, cb OpCallback, why cause) {
	why = c.countAbandoned(1, why)
	c.session.Abandon(h)
	if cb != nil {
		cb(wire.OpResult{Status: wire.StatusError})
	}
	c.noteAbandoned(h.SeqStart, 1, why)
}

// Flush sends all partially filled batches.
func (c *Client) Flush() error {
	var firstErr error
	for owner, b := range c.buffers {
		delete(c.buffers, owner)
		if err := c.sendBatch(b); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Drain flushes and blocks until no operations are outstanding, or a
// rollback surfaces.
func (c *Client) Drain() error {
	if err := c.Flush(); err != nil {
		return err
	}
	c.mu.Lock()
	err := c.waitLocked(func() bool { return c.outstanding == 0 })
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.take()
}

// waitLocked blocks the owner, which holds c.mu, until done holds or the
// session fails: a rollback a connection announced surfaces as the owner
// takes in the hand-off, each time it wakes.
func (c *Client) waitLocked(done func() bool) error {
	for !done() {
		if err := c.sleepLocked(); err != nil {
			return err
		}
	}
	return nil
}

// sleepLocked has the owner, which holds c.mu, sleep until the next hand-off
// and take it in, with c.mu let go meanwhile.
func (c *Client) sleepLocked() error {
	c.parked = true
	c.mu.Unlock()
	defer c.mu.Lock()
	<-c.wake
	return c.take()
}

// park readies the owner to sleep on the next hand-off, takes in what waits
// already, and returns the channel the next hand-off signals: WaitCommit's
// transport.
func (c *Client) park() (<-chan struct{}, error) {
	c.mu.Lock()
	c.parked = true
	c.mu.Unlock()
	return c.wake, c.take()
}

// postLocked marks the hand-off ready and wakes the owner if it sleeps on it.
// The caller holds c.mu.
func (c *Client) postLocked() {
	c.posted.Store(true)
	if c.parked {
		c.parked = false
		select {
		case c.wake <- struct{}{}:
		default: // a signal the owner did not wait for is still there
		}
	}
}

// LastSeq returns the highest sequence number assigned on the session's
// current world-line (a rollback takes back those beyond the surviving prefix).
func (c *Client) LastSeq() uint64 { return c.session.Tracker().NextSeq() - 1 }

// Committed returns the session's committed prefix and exceptions, shared
// until they change (core.SessionTracker.Committed): it must not be modified.
// It takes in the hand-off first; a failure found there is returned by the
// next call that returns errors.
func (c *Client) Committed() (uint64, []uint64) {
	_ = c.take()
	return c.session.Committed()
}

// WaitCommit blocks until every operation at or below seq is committed or
// abandoned, a failure intervenes, or the timeout expires
// (libdpr.Session.WaitCommit), waking for what the connections hand the owner
// — a reply, a pushed cut, an abandon — and asking the finder behind them.
func (c *Client) WaitCommit(seq uint64, timeout time.Duration) error {
	return c.session.WaitCommit(seq, timeout, c.park)
}

// WaitCommitAll flushes, drains, and waits until everything issued so far is
// committed or abandoned. A send never returns a delivery failure — the batch
// is re-driven first — so this is where one surfaces: a *core.AbandonedError
// naming the first operation abandoned since the last report (Committed lists
// them all as exceptions). Everything else issued so far is then committed.
func (c *Client) WaitCommitAll(timeout time.Duration) error {
	if err := c.Drain(); err != nil {
		return err
	}
	if err := c.WaitCommit(c.LastSeq(), timeout); err != nil {
		return err
	}
	if seq := c.session.TakeLost(); seq != 0 {
		return &core.AbandonedError{Seq: seq}
	}
	return nil
}

// ---- routing and connections ----

func (c *Client) ownerOf(key []byte) (core.WorkerID, error) {
	return c.ownerOfPartition(PartitionOf(key, c.cfg.Partitions))
}

func (c *Client) ownerOfPartition(p uint64) (core.WorkerID, error) {
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

// connTo returns the live connection to worker w, dialling one if there is
// none; the dial runs with no lock held, and of two racing ones the first
// kept wins.
func (c *Client) connTo(w core.WorkerID) (*workerConn, error) {
	c.mu.Lock()
	wc := c.conns[w]
	c.mu.Unlock()
	if err := c.closed.Err(); err != nil {
		return nil, err
	}
	if wc != nil {
		select {
		case <-wc.closed:
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.closed.Err(); err != nil { // Close has swept the connections
		conn.Close()
		return nil, err
	}
	if cur := c.conns[w]; cur != wc { // another sender dialled first
		conn.Close()
		return cur, nil
	}
	wc = &workerConn{
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
//   - settled: in the hand-off, then the owner's, which takes it in and puts
//     it on the free list.

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
	deltas []byte // the RMW operations' values

	// What settle found, for the owner: the cause the operations were
	// abandoned for (empty: answered), or the replying worker, the reply's
	// world-line and its versions.
	cause    cause
	worker   core.WorkerID
	wl       core.WorldLine
	versions []core.Version

	// Guarded by Client.mu. retries counts the times the batch has parked.
	state   batchState
	retries int
}

// move is the only writer of a batch's state. The caller holds c.mu.
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
// and the last few such batches ("seq 11+1 stranded"), oldest first, once the
// owner has taken in the hand-off.
func (c *Client) Abandoned() (uint64, []string) {
	_ = c.take()
	last := make([]string, len(c.recent))
	for i, r := range c.recent {
		last[i] = fmt.Sprintf("seq %d+%d %s", r.seqStart, r.n, r.why)
	}
	return c.abandoned, last
}

// outcome is what became of a batch: a reply from worker, or the cause its
// operations are abandoned for.
type outcome struct {
	cause  cause
	worker core.WorkerID
	reply  *wire.BatchReply
}

// settle ends the lifecycle of b, which the caller owns, and is the only code
// that does (the co-located operation, never a batch, settles on the owner:
// executeLocal): it fires the callbacks, then, under c.mu, releases the window
// slots, lets the next parked batch or the fresh sends go, and hands b — its
// cause, or its reply's versions, world-line and cut — to the owner, which
// tells the session what became of b's sequence numbers at its next call
// (takeIn). Any goroutine may settle.
func (c *Client) settle(b *batch, out outcome) {
	// b is the caller's alone, so its state is the caller's to read: settled
	// twice, it tells the callbacks and the owner nothing a second time.
	if b.state == stSettled {
		lifecycleViolations.Inc()
		return
	}
	var cut core.Cut
	if r := out.reply; r != nil {
		b.versions = slices.Grow(b.versions[:0], len(r.Results))[:len(r.Results)]
		for i := range r.Results {
			b.versions[i] = r.Results[i].Version
		}
		b.worker, b.wl, cut = out.worker, r.WorldLine, r.Cut
		for i, cb := range b.cbs {
			if cb != nil && i < len(r.Results) {
				cb(r.Results[i])
			}
		}
	} else {
		b.cause = c.countAbandoned(len(b.ops), out.cause)
		for _, cb := range b.cbs {
			if cb != nil {
				cb(wire.OpResult{Status: wire.StatusError})
			}
		}
	}
	c.mu.Lock()
	if c.move(b, stSettled) {
		c.outstanding -= len(b.ops)
		c.leaveHeadLocked(b)
		c.settled = append(c.settled, b)
		c.keepCutLocked(b.wl, cut)
		c.postLocked()
	}
	c.mu.Unlock()
}

// announce hands the owner a world-line a connection heard of — a pushed cut's
// (wire.FrameCutAdvance), or one an error reply named, ahead of its batch's
// callbacks — and merges cut, if any, into the one waiting. cut is copied, not
// retained: read loops decode pushes into a held wire.CutAdvance.
func (c *Client) announce(wl core.WorldLine, cut core.Cut) {
	c.mu.Lock()
	c.keepCutLocked(wl, cut)
	c.notice = max(c.notice, wl)
	c.postLocked()
	c.mu.Unlock()
}

// keepCutLocked adds cut, observed on wl, to the one the owner folds next,
// unless it is empty or one from a later world-line waits; one from an
// earlier world-line is dropped. On one world-line the two merge by
// per-worker maximum: replies off different connections carry their
// workers' views of the finder's cut, which lag by different amounts, so the
// last handed over need not be the newest, and the union of two cuts the
// finder committed on one world-line is committed. The caller holds c.mu.
func (c *Client) keepCutLocked(wl core.WorldLine, cut core.Cut) {
	if len(cut) == 0 || c.hasCut && wl < c.cutWL {
		return
	}
	if c.cut == nil {
		c.cut = make(core.Cut, len(cut))
	}
	if !c.hasCut || wl > c.cutWL {
		clear(c.cut)
	}
	c.cut.Merge(cut)
	c.cutWL, c.hasCut = wl, true
}

// countAbandoned counts n operations abandoned for why and returns the cause
// they count under: closed once the client is.
func (c *Client) countAbandoned(n int, why cause) cause {
	if c.closed.Err() != nil {
		why = causeClosed
	}
	obs.Default.Counter("dpr_client_abandoned_ops_total",
		"Operations whose callback received StatusError and whose fate the session records as unknown.",
		obs.L("cause", string(why))).Add(uint64(n))
	return why
}

// noteAbandoned adds n operations from seqStart, abandoned for why, to what
// Abandoned reports. The owner's.
func (c *Client) noteAbandoned(seqStart uint64, n int, why cause) {
	c.abandoned += uint64(n)
	c.recent = append(c.recent[max(0, len(c.recent)-7):], abandonedOps{seqStart, uint64(n), why})
}

// recycle puts a batch the owner has taken in on the free list, still settled
// — letting go of it twice stays an illegal move — and without the caller's
// keys, values and callbacks. The list never outgrows what was once out
// together, Window/BatchSize in flight and one filling per owner. The owner's.
func (c *Client) recycle(b *batch) {
	clear(b.ops)
	clear(b.cbs)
	c.free = append(c.free, b)
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
// connection's read loop settles it. The owner's.
func (c *Client) sendBatch(b *batch) error {
	var err error
	b.header, err = c.nextBatch(len(b.ops))
	if err == nil && c.cfg.OnSend != nil {
		c.cfg.OnSend(b.header.SeqStart, len(b.ops))
	}
	// While a batch is parked or re-driving, hold fresh transmissions back — a
	// fresh (higher-sequence) batch that reached a worker first would execute
	// ahead of the parked tail, breaking session order — and re-resolve the
	// owner afterwards: the re-drive has updated the routing table. A failure
	// ends the wait, and the batch is given up instead.
	c.mu.Lock()
	c.outstanding += len(b.ops) // from here on its operations hold window slots
	waited := c.head != nil
	if err == nil {
		err = c.waitLocked(func() bool { return c.head == nil })
	}
	c.mu.Unlock()
	if err != nil {
		c.settle(b, outcome{cause: causeRejected})
		return err
	}
	if waited {
		if owner, oerr := c.ownerOf(b.ops[0].Key); oerr == nil {
			b.owner = owner
		}
	}
	c.transmit(b)
	return nil
}

// nextBatch reserves n sequence numbers (libdpr.Session.NextBatch) once the
// owner has taken in the hand-off: a rollback a connection announced fails it
// instead of handing the batch a header.
func (c *Client) nextBatch(n int) (libdpr.BatchHeader, error) {
	if err := c.take(); err != nil {
		return libdpr.BatchHeader{}, err
	}
	return c.session.NextBatch(n)
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
				c.announce(adv.WorldLine, adv.Cut)
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
			c.settle(b, outcome{worker: wc.id, reply: &reply})
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
		c.announce(er.WorldLine, nil)
		c.settle(b, outcome{cause: causeRejected})
	default:
		c.settle(b, outcome{cause: causeRefused})
	}
}
