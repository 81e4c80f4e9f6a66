package serve

import (
	"bufio"
	"errors"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"dpr/internal/core"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/wire"
)

// Applier is the one step of the DPR pipeline a store supplies per connection
// (or per co-located caller): run a batch's operations against the store.
//
// The frame guarantees: Apply is called from one goroutine at a time per
// Applier; the batch is admitted (the session's earlier batches have executed,
// later ones wait) and the rollback fence is held, so the worker's world-line
// cannot move and no Restore runs until Apply returns; results has one slot
// per operation; *arena is empty, and what Apply appends to it — like results
// itself — stays valid until the same caller's next batch.
//
// The backend owes: every result stamped with the version its operation
// executed in (zero only for an operation that touched nothing), and a refusal
// decided before anything is mutated. A non-nil return refuses the whole
// batch: the frame answers it as the error frame, stamped with the worker's
// world-line, and leaves the session's sequence fence where it was, so the
// client may retransmit the same sequence numbers, here or elsewhere.
type Applier interface {
	Apply(req *wire.BatchRequest, results []wire.OpResult, arena *[]byte) *wire.ErrorReply
}

// Conn is one connection's backend state, built by Start's open callback when
// the connection is accepted.
type Conn struct {
	Apply Applier
	// Takeover and Close are Handler's: a connection that turns out not to be
	// a session, and the release of the connection's backend state. Optional.
	Takeover func(tag byte, payload []byte, fr *wire.FrameReader, bw *bufio.Writer)
	Close    func()
}

// Worker is the DPR worker frame: a Server, the libdpr.Worker wrapped around
// a store's StateObject, and the batch pipeline between them. It is everything
// a store behind DPR does not have to write: listener, cut-advance pushes,
// admission, dependency recording, reply assembly, serving-layer instruments.
type Worker struct {
	store string // "dfaster", "dredis": instrument label and /debug/dpr kind
	srv   *Server
	dpr   *libdpr.Worker

	reg       *obs.Registry
	lbls      []obs.Label
	batchLatH *obs.Histogram
	batchOpsH *obs.Histogram
	// Connections and co-located callers are assigned lanes round-robin and
	// bump their lane's counters on the hot path, so load attribution needs
	// no per-connection label cardinality; the worker's totals are their sums,
	// taken at scrape.
	lanes   []laneCounters
	laneSeq atomic.Uint64
}

type laneCounters struct{ batches, ops *obs.Counter }

// time.Since(clockBase) is one monotonic clock read; time.Now is that and a
// wall-clock one.
var clockBase = time.Now()

// sampleEvery is how many executed batches of a lane share one sample of the
// batch histograms: the first of every sampleEvery is timed and recorded. Two
// clock reads and two records per batch were about a third of the server half
// of a b = 1 co-located operation (BenchmarkExecuteLocal), timing something
// under the histogram's 1 µs resolution; one batch in 64 keeps the
// distribution and takes them off the per-operation path.
const sampleEvery = 64

// NewWorker binds cfg.Addr ("" = no network side: co-located callers only),
// wraps so in a libdpr.Worker advertising the bound address and registers the
// serving-layer instruments under the store's name. cfg.EncodeCut is the
// frame's to set. Nothing is accepted until Start.
func NewWorker(store string, cfg libdpr.WorkerConfig, so libdpr.StateObject, meta metadata.Service) (*Worker, error) {
	srv, err := Listen(cfg.Addr)
	if err != nil {
		return nil, err
	}
	cfg.Addr = srv.Addr()
	// Pre-encode the piggybacked cut once per refresh so replies splice bytes
	// instead of re-serializing the map per batch.
	cfg.EncodeCut = func(c core.Cut) []byte { return wire.AppendCut(nil, c) }
	dw, err := libdpr.NewWorker(cfg, so, meta)
	if err != nil {
		srv.Stop()
		return nil, err
	}
	dw.OnCutAdvance(srv.PushCutAdvance)
	w := &Worker{store: store, srv: srv, dpr: dw, reg: cfg.Obs}
	if w.reg == nil {
		w.reg = obs.Default
	}
	w.lbls = []obs.Label{
		obs.L("worker", strconv.FormatUint(uint64(cfg.ID), 10)),
		obs.L("store", store),
	}
	w.registerObs()
	return w, nil
}

// Instruments returns the registry and the worker/store labels the frame's
// instruments carry, for the backend's own.
func (w *Worker) Instruments() (*obs.Registry, []obs.Label) { return w.reg, w.lbls }

// registerObs registers the serving-layer instruments (the protocol's live on
// w.dpr). Get-or-create semantics make this idempotent across restarts of a
// worker with the same id.
func (w *Worker) registerObs() {
	reg, lbls := w.reg, w.lbls
	reg.CounterFunc("dpr_server_batches_total",
		"Batches executed by the serving layer.", func() uint64 { b, _ := w.totals(); return b }, lbls...)
	reg.CounterFunc("dpr_server_ops_total",
		"Operations executed by the serving layer.", func() uint64 { _, o := w.totals(); return o }, lbls...)
	w.batchLatH = reg.Histogram("dpr_server_batch_latency_seconds",
		"Server-side batch execution latency (admission through reply assembly), sampled: one batch in 64 per lane.", lbls...)
	w.batchOpsH = reg.ValueHistogram("dpr_server_batch_ops",
		"Operations per executed batch, sampled: one batch in 64 per lane.", lbls...)
	// Sized to the machine, like the kv index's default shard count.
	w.lanes = make([]laneCounters, min(max(runtime.GOMAXPROCS(0), 1), 16))
	for i := range w.lanes {
		laneLbls := append(slices.Clone(lbls), obs.L("lane", strconv.Itoa(i)))
		w.lanes[i] = laneCounters{
			batches: reg.Counter("dpr_server_lane_batches_total",
				"Batches executed, attributed to serving lanes.", laneLbls...),
			ops: reg.Counter("dpr_server_lane_ops_total",
				"Operations executed, attributed to serving lanes.", laneLbls...),
		}
	}
	reg.GaugeFunc("dpr_server_lane_imbalance",
		"Max over mean of per-lane batch counts (1.0 = perfectly balanced).",
		func() float64 {
			var most, sum uint64
			for i := range w.lanes {
				n := w.lanes[i].batches.Value()
				sum += n
				most = max(most, n)
			}
			if sum == 0 {
				return 1
			}
			return float64(most) * float64(len(w.lanes)) / float64(sum)
		}, lbls...)
}

// totals sums the lane counters.
func (w *Worker) totals() (batches, ops uint64) {
	for i := range w.lanes {
		batches += w.lanes[i].batches.Value()
		ops += w.lanes[i].ops.Value()
	}
	return batches, ops
}

// Start begins accepting; open builds each connection's backend state. The
// frame adds the connection's scratch and lane, so batches execute
// allocation-free.
func (w *Worker) Start(open func() Conn) {
	w.srv.Start(func() Handler {
		c, sc, lane := open(), new(Scratch), w.NewLane()
		return Handler{
			Execute: func(req *wire.BatchRequest) (*wire.BatchReply, *wire.ErrorReply) {
				return w.Execute(req, c.Apply, sc, lane)
			},
			Takeover: c.Takeover,
			Close: func() {
				lane.Close()
				if c.Close != nil {
					c.Close()
				}
			},
		}
	})
}

// Lane couples a libDPR execution lane (the epoch slot a batch pins against
// the rollback fence) with the lane counters it reports into. Each connection
// — and each co-located caller — owns one; a Lane must not be used by two
// batches concurrently.
type Lane struct {
	exec *libdpr.ExecLane
	laneCounters
	// The dependency the lane recorded last and where; a session repeats it
	// until its other worker's version moves, so most batches skip the call.
	// The world-line is part of the key: a rollback forgets what was recorded
	// under the versions it erased, and they come round again.
	depWL  core.WorldLine
	depVer core.Version
	dep    core.Token
	// executed counts the batches the lane has executed; the batch histograms
	// sample those it numbers 0 mod sampleEvery.
	executed uint64
}

// NewLane registers an execution lane under the next lane id (round-robin).
// Close it when the connection or co-located caller is done.
func (w *Worker) NewLane() *Lane {
	id := int(w.laneSeq.Add(1)-1) % len(w.lanes)
	return &Lane{exec: w.dpr.NewLane(), laneCounters: w.lanes[id]}
}

// Close unregisters the lane from rollback-fence accounting.
func (l *Lane) Close() { l.exec.Close() }

// Scratch is the reusable state of one caller's batch executions: results,
// their versions, the arena read values are copied into, and the reply shell.
// It grows to the largest batch it serves and stays there, which makes
// Execute allocation-free in steady state. Not safe for concurrent use; the
// reply returned from an execution aliases it.
type Scratch struct {
	results  []wire.OpResult
	versions []core.Version
	arena    []byte
	reply    wire.BatchReply
}

// Execute runs the server-side DPR pipeline for one batch: guarded admission,
// the backend's apply, dependency recording under every version the batch
// executed in (§3.1: dependencies are tracked per version), reply assembly,
// instruments (the histograms sampled per lane, see sampleEvery), release.
// Shared by the network path and co-located callers.
// The reply (and the values inside it) aliases sc; it is valid until the next
// Execute with the same scratch.
//
//dpr:noalloc
func (w *Worker) Execute(req *wire.BatchRequest, app Applier, sc *Scratch, lane *Lane) (*wire.BatchReply, *wire.ErrorReply) {
	sampled := lane.executed%sampleEvery == 0
	var start time.Duration
	if sampled {
		start = time.Since(clockBase)
	}
	if _, err := w.dpr.AdmitBatchGuarded(req.Header, lane.exec); err != nil {
		code := wire.ErrCodeRejected
		if errors.Is(err, libdpr.ErrStaleBatch) {
			code = wire.ErrCodeStale
		}
		return nil, &wire.ErrorReply{ //dpr:ignore hotpath-noalloc cold reject path: admission failures are rare and already off the steady-state path
			Code:      code,
			WorldLine: w.dpr.WorldLine(),
			Message:   err.Error(),
		}
	}
	n := len(req.Ops)
	sc.results = slices.Grow(sc.results[:0], n)[:n]   //dpr:ignore hotpath-noalloc grows once to the batch high-water mark; steady state reuses the scratch
	sc.versions = slices.Grow(sc.versions[:0], n)[:n] //dpr:ignore hotpath-noalloc grows once to the batch high-water mark; steady state reuses the scratch
	sc.arena = sc.arena[:0]
	if refusal := app.Apply(req, sc.results, &sc.arena); refusal != nil {
		refusal.WorldLine = w.dpr.WorldLine()
		w.dpr.ReleaseBatch(req.Header, lane.exec, false)
		return nil, refusal
	}
	// The fence is held: the reply's world-line is the one the batch executed on.
	dprReply := w.dpr.Reply(sc.versions)
	// RecordDependency is idempotent, so calling it whenever the version differs
	// from the previous operation's covers every distinct one without a set.
	var prev core.Version
	for i := range sc.results {
		v := sc.results[i].Version
		sc.versions[i] = v
		if v != prev && v != 0 && (v != lane.depVer || req.Header.Dep != lane.dep || dprReply.WorldLine != lane.depWL) {
			w.dpr.RecordDependency(v, req.Header.Dep)
			lane.depWL, lane.depVer, lane.dep = dprReply.WorldLine, v, req.Header.Dep
		}
		prev = v
	}
	sc.reply = wire.BatchReply{
		WorldLine: dprReply.WorldLine,
		Results:   sc.results,
		Cut:       dprReply.Cut,
		CutGen:    dprReply.CutGen,
		// The pre-encoded cut is spliced verbatim by AppendBatchReply,
		// skipping per-batch map serialization.
		EncodedCut: dprReply.EncodedCut,
	}
	lane.batches.Inc()
	lane.ops.Add(uint64(n))
	if sampled {
		w.batchOpsH.ObserveValue(uint64(n))
		w.batchLatH.Observe(time.Since(clockBase) - start)
	}
	lane.executed++
	w.dpr.ReleaseBatch(req.Header, lane.exec, true)
	return &sc.reply, nil
}

// DebugState assembles the /debug/dpr snapshot, layering the serving-layer
// counters onto the libDPR protocol view.
func (w *Worker) DebugState() obs.DPRState {
	st := w.dpr.DebugState(w.store)
	st.Batches, st.Ops = w.totals()
	return st
}

// ID returns the worker's id.
func (w *Worker) ID() core.WorkerID { return w.dpr.ID() }

// Addr returns the listen address ("" if co-located only).
func (w *Worker) Addr() string { return w.srv.Addr() }

// DPR exposes the libDPR worker.
func (w *Worker) DPR() *libdpr.Worker { return w.dpr }

// Stop shuts down the serving frame (listener, live connections and their
// goroutines), then the libDPR loops. The store is the backend's to close,
// after this.
func (w *Worker) Stop() {
	w.srv.Stop()
	w.dpr.Stop()
}
