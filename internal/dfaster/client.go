package dfaster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
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
	// RetryBadOwner bounds ownership-miss retries (default 8).
	RetryBadOwner int
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

	ownersMu sync.RWMutex
	owners   map[uint64]core.WorkerID
	addrs    map[core.WorkerID]string

	connsMu sync.Mutex
	conns   map[core.WorkerID]*workerConn

	// Local-path scratch: the co-located fast path runs on the session's
	// single enqueueing goroutine, so one reusable request, scratch, and
	// callback slot make it allocation-free.
	localSess     *kv.Session
	localScratch  *BatchScratch
	localLane     *Lane
	localReq      wire.BatchRequest
	localVersions []core.Version
	localCbs      [1]OpCallback

	mu          sync.Mutex
	cond        *sync.Cond
	outstanding int
	failure     error
	lastSeq     uint64
	// retryGateOn gates fresh sends while refused batches are being
	// re-driven in sequence order (see the ordered-retry section below).
	retryGateOn bool

	// Ordered retry of refused batches: retryQ holds parked batches in
	// ascending sequence order, retryBusy marks the head in flight, and
	// retryOutstanding counts its unsettled operations. retryMu is always
	// taken before mu when both are needed.
	retryMu          sync.Mutex
	retryQ           []*sentBatch
	retryBusy        bool
	retryOutstanding int
	retryWake        chan struct{}

	closed    chan struct{}
	closeOnce sync.Once

	buffers map[core.WorkerID]*opBuffer
}

type opBuffer struct {
	ops []wire.Op
	cbs []OpCallback
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
	if cfg.RetryBadOwner <= 0 {
		cfg.RetryBadOwner = 8
	}
	sess, err := libdpr.NewSession(meta, cfg.Relaxed)
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:       cfg,
		meta:      meta,
		session:   sess,
		owners:    make(map[uint64]core.WorkerID),
		addrs:     make(map[core.WorkerID]string),
		conns:     make(map[core.WorkerID]*workerConn),
		buffers:   make(map[core.WorkerID]*opBuffer),
		retryWake: make(chan struct{}, 1),
		closed:    make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.retryLoop()
	if cfg.LocalWorker != nil {
		c.localSess = cfg.LocalWorker.Store().NewSession()
		c.localScratch = NewBatchScratch()
		c.localLane = cfg.LocalWorker.NewLane()
	}
	return c, nil
}

// Session exposes the libDPR session (commit tracking, diagnostics).
func (c *Client) Session() *libdpr.Session { return c.session }

// Close tears down connections, the retry loop, and the local session.
// Parked retries resolve as errors: nothing will re-drive them.
func (c *Client) Close() {
	c.closeOnce.Do(func() { close(c.closed) })
	c.retryMu.Lock()
	parked := c.retryQ
	c.retryQ = nil
	c.retryMu.Unlock()
	for _, sb := range parked {
		c.resolveError(sb.ops, sb.cbs)
	}
	c.connsMu.Lock()
	for _, wc := range c.conns {
		wc.close()
	}
	c.conns = make(map[core.WorkerID]*workerConn)
	c.connsMu.Unlock()
	if c.localSess != nil {
		c.localSess.Close()
	}
	if c.localLane != nil {
		c.localLane.Close()
	}
}

// Err returns the pending failure (a *core.SurvivalError after a rollback),
// or nil.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

// Acknowledge clears a pending SurvivalError so the session can continue on
// the new world-line.
func (c *Client) Acknowledge() *core.SurvivalError {
	c.mu.Lock()
	c.failure = nil
	c.mu.Unlock()
	surv := c.session.Acknowledge()
	if surv != nil {
		// Sequence numbers beyond the surviving prefix were dropped and
		// will be reassigned; the high-water mark must regress with them or
		// WaitCommitAll would wait for sequence numbers that no longer
		// exist.
		c.mu.Lock()
		if c.lastSeq > surv.SurvivingPrefix {
			c.lastSeq = surv.SurvivingPrefix
		}
		c.mu.Unlock()
	}
	return surv
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
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(delta >> (8 * i))
	}
	return c.enqueue(wire.Op{Kind: wire.OpRMW, Key: key, Value: buf[:]}, cb)
}

func (c *Client) enqueue(op wire.Op, cb OpCallback) error {
	c.mu.Lock()
	for c.failure == nil && c.outstanding >= c.cfg.Window {
		c.cond.Wait()
	}
	if f := c.failure; f != nil {
		c.mu.Unlock()
		return f
	}
	c.mu.Unlock()

	owner, err := c.ownerOf(op.Key)
	if err != nil {
		return err
	}
	// Co-located fast path: execute immediately on the calling thread.
	if c.cfg.LocalWorker != nil && owner == c.cfg.LocalWorker.ID() {
		return c.executeLocal(op, cb)
	}
	c.mu.Lock()
	buf, ok := c.buffers[owner]
	if !ok {
		buf = &opBuffer{}
		c.buffers[owner] = buf
	}
	buf.ops = append(buf.ops, op)
	buf.cbs = append(buf.cbs, cb)
	full := len(buf.ops) >= c.cfg.BatchSize
	var ops []wire.Op
	var cbs []OpCallback
	if full {
		ops, cbs = buf.ops, buf.cbs
		buf.ops, buf.cbs = nil, nil
		c.outstanding += len(ops)
	}
	c.mu.Unlock()
	if full {
		return c.sendBatch(owner, ops, cbs)
	}
	return nil
}

func (c *Client) executeLocal(op wire.Op, cb OpCallback) error {
	h, err := c.session.NextBatch(1)
	if err != nil {
		c.recordFailure(err)
		return err
	}
	c.mu.Lock()
	if h.SeqStart > c.lastSeq {
		c.lastSeq = h.SeqStart
	}
	// completeBatch releases one window slot; claim it so the counter
	// balances even though local ops never really occupy the window.
	c.outstanding++
	c.mu.Unlock()
	if c.cfg.OnSend != nil {
		c.cfg.OnSend(h.SeqStart, 1)
	}
	c.localReq.Header = h
	c.localReq.Ops = append(c.localReq.Ops[:0], op)
	reply, errReply := c.cfg.LocalWorker.ExecuteLocalScratch(c.localSess, &c.localReq, c.localScratch, c.localLane)
	if errReply != nil {
		if errReply.Code == wire.ErrCodeRejected {
			if err := c.session.NotifyWorldLine(errReply.WorldLine); err != nil {
				c.recordFailure(err)
				return err
			}
		}
		return errReply
	}
	c.localVersions = slices.Grow(c.localVersions[:0], len(reply.Results))[:len(reply.Results)]
	for i := range reply.Results {
		c.localVersions[i] = reply.Results[i].Version
	}
	c.localCbs[0] = cb
	if err := c.completeBatch(c.cfg.LocalWorker.ID(), h, reply, c.localVersions, c.localCbs[:]); err != nil {
		return err
	}
	return nil
}

// Flush sends all partially filled batches.
func (c *Client) Flush() error {
	c.mu.Lock()
	type pending struct {
		w   core.WorkerID
		ops []wire.Op
		cbs []OpCallback
	}
	var toSend []pending
	for wid, buf := range c.buffers {
		if len(buf.ops) == 0 {
			continue
		}
		toSend = append(toSend, pending{w: wid, ops: buf.ops, cbs: buf.cbs})
		c.outstanding += len(buf.ops)
		buf.ops, buf.cbs = nil, nil
	}
	c.mu.Unlock()
	var firstErr error
	for _, p := range toSend {
		if err := c.sendBatch(p.w, p.ops, p.cbs); err != nil && firstErr == nil {
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

// LastSeq returns the highest sequence number assigned so far.
func (c *Client) LastSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSeq
}

// Committed returns the session's committed prefix and exceptions.
func (c *Client) Committed() (uint64, []uint64) { return c.session.Committed() }

// WaitCommitAll flushes, drains, and waits until everything issued so far is
// committed.
func (c *Client) WaitCommitAll(timeout time.Duration) error {
	if err := c.Drain(); err != nil {
		return err
	}
	return c.session.WaitCommit(c.LastSeq(), timeout)
}

// ---- transport ----

func (c *Client) ownerOf(key []byte) (core.WorkerID, error) {
	p := PartitionOf(key, c.cfg.Partitions)
	c.ownersMu.RLock()
	w, ok := c.owners[p]
	c.ownersMu.RUnlock()
	if ok {
		return w, nil
	}
	w, err := c.meta.OwnerOf(p)
	if err != nil {
		return 0, err
	}
	c.ownersMu.Lock()
	c.owners[p] = w
	c.ownersMu.Unlock()
	return w, nil
}

func (c *Client) invalidateOwners() {
	c.ownersMu.Lock()
	c.owners = make(map[uint64]core.WorkerID)
	c.ownersMu.Unlock()
}

func (c *Client) addrOf(w core.WorkerID) (string, error) {
	c.ownersMu.RLock()
	a, ok := c.addrs[w]
	c.ownersMu.RUnlock()
	if ok {
		return a, nil
	}
	members, err := c.meta.Members()
	if err != nil {
		return "", err
	}
	c.ownersMu.Lock()
	for id, addr := range members {
		c.addrs[id] = addr
	}
	a, ok = c.addrs[w]
	c.ownersMu.Unlock()
	if !ok || a == "" {
		return "", fmt.Errorf("dfaster: no address for worker %d", w)
	}
	return a, nil
}

type sentBatch struct {
	header libdpr.BatchHeader
	ops    []wire.Op
	cbs    []OpCallback
	// retries counts BadOwner resends.
	retries int
	// viaRetry marks a batch dispatched by the retry loop; its settlement
	// (completion, error, or re-park) releases the loop for the next head.
	viaRetry bool
}

type workerConn struct {
	id     core.WorkerID
	conn   net.Conn
	bw     *bufio.Writer
	sendMu sync.Mutex

	inflightMu sync.Mutex
	inflight   []*sentBatch

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
	if wc, ok := c.conns[w]; ok {
		select {
		case <-wc.closed:
			delete(c.conns, w)
		default:
			return wc, nil
		}
	}
	addr, err := c.addrOf(w)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
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

// sendBatch assigns sequence numbers and transmits a batch; the reader loop
// resolves it. On failure the ops are resolved with error callbacks.
func (c *Client) sendBatch(w core.WorkerID, ops []wire.Op, cbs []OpCallback) error {
	h, err := c.session.NextBatch(len(ops))
	if err != nil {
		c.resolveError(ops, cbs)
		c.recordFailure(err)
		return err
	}
	c.mu.Lock()
	if end := h.SeqStart + uint64(len(ops)) - 1; end > c.lastSeq {
		c.lastSeq = end
	}
	c.mu.Unlock()
	if c.cfg.OnSend != nil {
		c.cfg.OnSend(h.SeqStart, len(ops))
	}
	// Ordered-retry gate: while refused batches are parked or being
	// re-driven, hold fresh transmissions back — a fresh (higher-sequence)
	// batch that reached a worker first would execute ahead of the parked
	// tail, breaking session order. Re-resolve the owner afterwards: the
	// retries have updated the routing table.
	c.mu.Lock()
	for c.retryGateOn && c.failure == nil {
		c.cond.Wait()
	}
	ok := c.failure == nil
	c.mu.Unlock()
	if ok {
		if owner, oerr := c.ownerOf(ops[0].Key); oerr == nil {
			w = owner
		}
	}
	return c.transmitRouted(w, &sentBatch{header: h, ops: ops, cbs: cbs})
}

// transmitRouted sends sb to owner, re-resolving the route on connection
// failure: a member that drained out of the cluster leaves stale owner and
// address caches behind, and its replacement is only discoverable through
// metadata. A failed transmit never delivered the frame (the batch is pulled
// back out of the in-flight queue), so the retransmission is marked
// Redirected and admitted below the session fence at whichever worker the
// metadata now names. Resolves the ops as errors once retries are exhausted.
func (c *Client) transmitRouted(owner core.WorkerID, sb *sentBatch) error {
	err := c.transmit(owner, sb)
	for attempt := 0; err != nil && attempt < c.cfg.RetryBadOwner; attempt++ {
		c.invalidateOwners()
		time.Sleep(time.Millisecond)
		o, oerr := c.ownerOf(sb.ops[0].Key)
		if oerr != nil {
			break
		}
		sb.header.Redirected = true
		err = c.transmit(o, sb)
	}
	if err != nil {
		c.resolveError(sb.ops, sb.cbs)
		c.retrySettle(sb, len(sb.ops))
	}
	return err
}

// transmit sends sb to worker w on its connection. On failure the batch is
// NOT resolved and is guaranteed off the connection's in-flight queue: the
// caller still owns it and decides between re-routing and error resolution.
// A batch has one owner at a time — this caller, a connection's in-flight
// queue (its read loop), or the retry queue — so a failed write whose batch
// the read loop's stranded-batch cleanup had already taken is that loop's to
// settle, and is reported as sent.
func (c *Client) transmit(w core.WorkerID, sb *sentBatch) error {
	wc, err := c.connTo(w)
	if err != nil {
		return err
	}
	// Encode into a pooled buffer; WriteFrame copies into the bufio.Writer,
	// so the buffer can be returned as soon as the write call finishes.
	out := wire.GetBuffer()
	*out = wire.AppendBatchRequest(*out, &wire.BatchRequest{Header: sb.header, Ops: sb.ops})
	wc.sendMu.Lock()
	wc.inflightMu.Lock()
	wc.inflight = append(wc.inflight, sb)
	wc.inflightMu.Unlock()
	err = wire.WriteFrame(wc.bw, wire.FrameBatchRequest, *out)
	if err == nil {
		err = wc.bw.Flush()
	}
	if err != nil {
		// The frame was not delivered (bufio errors are sticky from the
		// first failed flush). Reclaim the batch before closing so the
		// read loop's stranded-batch cleanup cannot also resolve it — unless
		// that loop, woken by the same sever, got to the queue first.
		wc.inflightMu.Lock()
		i := slices.Index(wc.inflight, sb)
		if i >= 0 {
			wc.inflight = slices.Delete(wc.inflight, i, i+1)
		}
		wc.inflightMu.Unlock()
		wc.close()
		if i < 0 {
			err = nil
		}
	}
	wc.sendMu.Unlock()
	wire.PutBuffer(out)
	return err
}

// readLoop resolves replies for one connection in FIFO order. The loop is
// allocation-free in steady state: frames land in the FrameReader's pooled
// buffer, the reply shell and versions scratch are reused, and result values
// alias the frame (callbacks fire before the next frame overwrites it).
func (c *Client) readLoop(wc *workerConn) {
	fr := wire.NewFrameReader(bufio.NewReaderSize(wc.conn, 1<<16))
	defer fr.Close()
	var reply wire.BatchReply
	var versions []core.Version
	var adv wire.CutAdvance
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
			if wire.DecodeCutAdvanceInto(&adv, payload) == nil {
				if err := c.session.ObserveCut(adv.WorldLine, adv.Cut); err != nil {
					c.recordFailure(err)
				}
			}
			continue
		}
		wc.inflightMu.Lock()
		if len(wc.inflight) == 0 {
			wc.inflightMu.Unlock()
			break // protocol violation
		}
		sb := wc.inflight[0]
		wc.inflight = wc.inflight[1:]
		wc.inflightMu.Unlock()

		switch tag {
		case wire.FrameBatchReply:
			if err := wire.DecodeBatchReplyInto(&reply, payload); err != nil {
				c.resolveError(sb.ops, sb.cbs)
				c.retrySettle(sb, len(sb.ops))
				continue
			}
			versions = slices.Grow(versions[:0], len(reply.Results))[:len(reply.Results)]
			for i := range reply.Results {
				versions[i] = reply.Results[i].Version
			}
			c.completeBatch(wc.id, sb.header, &reply, versions, sb.cbs)
			c.retrySettle(sb, len(sb.cbs))
		case wire.FrameError:
			er, err := wire.DecodeError(payload)
			if err != nil {
				c.resolveError(sb.ops, sb.cbs)
				c.retrySettle(sb, len(sb.ops))
				continue
			}
			c.handleErrorReply(sb, er)
		default:
			c.resolveError(sb.ops, sb.cbs)
			c.retrySettle(sb, len(sb.ops))
		}
	}
	wc.close()
	// Handle batches still in flight so Drain never hangs. A stranded batch
	// may or may not have executed (the reply could simply be lost), so
	// write batches resolve as errors — retransmitting them risks double
	// execution. Read-only batches are side-effect-free: those park for an
	// ordered re-drive through metadata, which keeps live sessions reading
	// across a member draining out of the cluster.
	wc.inflightMu.Lock()
	stranded := wc.inflight
	wc.inflight = nil
	wc.inflightMu.Unlock()
	for _, sb := range stranded {
		if readOnly(sb.ops) && sb.retries < c.cfg.RetryBadOwner {
			sb.retries++
			c.parkRetry(sb)
			continue
		}
		c.resolveError(sb.ops, sb.cbs)
		c.retrySettle(sb, len(sb.ops))
	}
}

func readOnly(ops []wire.Op) bool {
	for i := range ops {
		if ops[i].Kind != wire.OpRead {
			return false
		}
	}
	return true
}

// completeBatch feeds a reply into the session and fires callbacks. The
// caller supplies the versions slice (typically its own reusable scratch);
// libdpr.Session.CompleteBatch does not retain it.
func (c *Client) completeBatch(w core.WorkerID, h libdpr.BatchHeader, reply *wire.BatchReply, versions []core.Version, cbs []OpCallback) error {
	err := c.session.CompleteBatch(w, h, libdpr.BatchReply{
		WorldLine: reply.WorldLine,
		Versions:  versions,
		Cut:       reply.Cut,
	})
	for i, cb := range cbs {
		if cb != nil && i < len(reply.Results) {
			cb(reply.Results[i])
		}
	}
	c.mu.Lock()
	c.outstanding -= len(cbs)
	if err != nil && c.failure == nil {
		c.failure = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	return err
}

func (c *Client) handleErrorReply(sb *sentBatch, er *wire.ErrorReply) {
	switch er.Code {
	case wire.ErrCodeBadOwner, wire.ErrCodeMoved:
		// The batch was refused — an ownership miss during a migration
		// freeze (BadOwner) or a partition that migrated away (Moved; the
		// target has claimed and metadata is authoritative). Either way the
		// batch parks for an ordered re-drive: the same sequence numbers
		// travel to the new owner(s), so the session's FIFO frontier and
		// commit floor carry across the flip, and the Redirected header flag
		// lets the retransmission under the new owner's session fence (the
		// session striped lower sequence numbers across the old ownership
		// map, so a redirected range is routinely below the fence of a
		// worker that already executed later batches).
		if sb.retries < c.cfg.RetryBadOwner {
			sb.retries++
			c.parkRetry(sb)
			return
		}
		c.resolveError(sb.ops, sb.cbs)
		c.retrySettle(sb, len(sb.ops))
	case wire.ErrCodeRejected:
		if err := c.session.NotifyWorldLine(er.WorldLine); err != nil {
			c.recordFailure(err)
		}
		c.resolveError(sb.ops, sb.cbs)
		c.retrySettle(sb, len(sb.ops))
	default:
		c.resolveError(sb.ops, sb.cbs)
		c.retrySettle(sb, len(sb.ops))
	}
}

// redirectBatch retransmits a refused batch after re-resolving ownership per
// operation. Migration moves partitions independently, so a batch that was
// owner-homogeneous when it was enqueued may now span owners: it is split
// into maximal runs of consecutive operations with the same owner, each
// forwarded as its own sub-batch carrying its slice of the sequence range
// (the session tracker resolves sequence numbers individually, so sub-range
// completions compose). Every run is marked Redirected — its range was
// refused, never executed, at each worker that answered it.
func (c *Client) redirectBatch(sb *sentBatch) {
	for start := 0; start < len(sb.ops); {
		owner, err := c.ownerOf(sb.ops[start].Key)
		if err != nil {
			c.resolveError(sb.ops[start:start+1], sb.cbs[start:start+1])
			c.retrySettle(sb, 1)
			start++
			continue
		}
		end := start + 1
		for end < len(sb.ops) {
			o, oerr := c.ownerOf(sb.ops[end].Key)
			if oerr != nil || o != owner {
				break
			}
			end++
		}
		run := &sentBatch{header: sb.header, ops: sb.ops[start:end], cbs: sb.cbs[start:end],
			retries: sb.retries, viaRetry: sb.viaRetry}
		run.header.SeqStart += uint64(start)
		run.header.NumOps = uint32(end - start)
		run.header.Redirected = true
		c.transmitRouted(owner, run)
		start = end
	}
}

// ---- ordered retry of refused batches ----
//
// A refused batch (BadOwner during a migration freeze, Moved after a flip,
// a read stranded by a dead connection) cannot simply be retransmitted from
// the spot where the refusal was observed: the session has later batches
// pipelined, and a refused batch that re-enters the wire behind them
// executes out of session order — an older write landing after a newer one
// to the same key silently loses the newer value. Refused batches park in a
// sequence-ordered queue re-driven by a single goroutine, one batch at a
// time: the head is retransmitted only when nothing else from the queue is
// in flight, and fresh sends gate until the queue drains. Workers enforce
// the same order for batches that were already in the pipe when the first
// refusal happened (the refusal ledger, refusal.go).

// parkRetry inserts sb into the retry queue in sequence order, engages the
// fresh-send gate, and wakes the retry loop. A re-parked head (refused
// again) releases the loop for the next attempt.
func (c *Client) parkRetry(sb *sentBatch) {
	c.retryMu.Lock()
	if sb.viaRetry {
		sb.viaRetry = false
		c.retryOutstanding -= len(sb.ops)
		if c.retryOutstanding <= 0 {
			c.retryBusy = false
		}
	}
	i := sort.Search(len(c.retryQ), func(i int) bool {
		return c.retryQ[i].header.SeqStart >= sb.header.SeqStart
	})
	c.retryQ = append(c.retryQ, nil)
	copy(c.retryQ[i+1:], c.retryQ[i:])
	c.retryQ[i] = sb
	dispatch := !c.retryBusy
	c.mu.Lock()
	if !c.retryGateOn {
		c.retryGateOn = true
	}
	c.mu.Unlock()
	c.retryMu.Unlock()
	if dispatch {
		select {
		case c.retryWake <- struct{}{}:
		default:
		}
	}
}

// retrySettle accounts n settled operations of a retry-dispatched batch
// (completed, error-resolved, or split-run finished). When the dispatched
// head has fully settled, the loop is released; when the queue is empty and
// idle, the fresh-send gate lifts. No-op for batches the loop did not
// dispatch.
func (c *Client) retrySettle(sb *sentBatch, n int) {
	if !sb.viaRetry {
		return
	}
	c.retryMu.Lock()
	c.retryOutstanding -= n
	if c.retryOutstanding <= 0 {
		c.retryBusy = false
	}
	gate := c.retryBusy || len(c.retryQ) > 0
	dispatch := !c.retryBusy && len(c.retryQ) > 0
	c.mu.Lock()
	if c.retryGateOn != gate {
		c.retryGateOn = gate
		if !gate {
			c.cond.Broadcast()
		}
	}
	c.mu.Unlock()
	c.retryMu.Unlock()
	if dispatch {
		select {
		case c.retryWake <- struct{}{}:
		default:
		}
	}
}

// retryLoop re-drives parked batches one at a time in ascending sequence
// order. The pause before each attempt gives an in-progress ownership
// transfer a moment to land; the owner cache is re-resolved per attempt.
func (c *Client) retryLoop() {
	for {
		select {
		case <-c.closed:
			return
		case <-c.retryWake:
		}
		for {
			c.retryMu.Lock()
			if c.retryBusy || len(c.retryQ) == 0 {
				c.retryMu.Unlock()
				break
			}
			sb := c.retryQ[0]
			c.retryQ = c.retryQ[1:]
			c.retryBusy = true
			c.retryOutstanding = len(sb.ops)
			sb.viaRetry = true
			c.retryMu.Unlock()
			select {
			case <-c.closed:
				c.resolveError(sb.ops, sb.cbs)
				c.retrySettle(sb, len(sb.ops))
				return
			case <-time.After(time.Millisecond):
			}
			c.invalidateOwners()
			c.redirectBatch(sb)
		}
	}
}

// resolveError fires error callbacks and releases window slots.
func (c *Client) resolveError(ops []wire.Op, cbs []OpCallback) {
	for _, cb := range cbs {
		if cb != nil {
			cb(wire.OpResult{Status: wire.StatusError})
		}
	}
	c.mu.Lock()
	c.outstanding -= len(cbs)
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *Client) recordFailure(err error) {
	c.mu.Lock()
	if c.failure == nil {
		c.failure = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}
