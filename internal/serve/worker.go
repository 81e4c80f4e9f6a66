package serve

import (
	"errors"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/core"
	"dpr/internal/epoch"
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
	// Lane is the connection's execution lane, when the backend builds it:
	// one lent the epoch slot of the store session Apply executes on
	// (NewLaneOn), so that a batch enters one slot once. Nil: the frame
	// registers one of its own (NewLane). The frame closes it either way.
	Lane *Lane
	// Close is Handler's: the release of the connection's backend state.
	// Optional.
	Close func()
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
	// Connections and co-located callers each own a Lane and count into its
	// words, which only they write. For attribution with no per-connection
	// label cardinality a lane carries one of ids round-robin ids; a scrape
	// sums the live lanes and what closed ones left in retired, per id.
	laneSeq atomic.Uint64
	ids     int
	lanesMu sync.Mutex
	live    map[*Lane]struct{}
	retired []laneCount
}

// laneCount is a lane's count of executed batches and operations.
type laneCount struct{ batches, ops uint64 }

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
	w.ids = min(max(runtime.GOMAXPROCS(0), 1), 16)
	w.live = make(map[*Lane]struct{})
	w.retired = make([]laneCount, w.ids)
	for i := 0; i < w.ids; i++ {
		laneLbls := append(slices.Clone(lbls), obs.L("lane", strconv.Itoa(i)))
		reg.CounterFunc("dpr_server_lane_batches_total",
			"Batches executed, attributed to serving lanes.", func() uint64 { return w.laneCounts()[i].batches }, laneLbls...)
		reg.CounterFunc("dpr_server_lane_ops_total",
			"Operations executed, attributed to serving lanes.", func() uint64 { return w.laneCounts()[i].ops }, laneLbls...)
	}
	reg.GaugeFunc("dpr_server_lane_imbalance",
		"Max over mean of per-lane batch counts (1.0 = perfectly balanced).",
		func() float64 {
			var most, sum uint64
			counts := w.laneCounts()
			for _, c := range counts {
				sum += c.batches
				most = max(most, c.batches)
			}
			if sum == 0 {
				return 1
			}
			return float64(most) * float64(len(counts)) / float64(sum)
		}, lbls...)
}

// laneCounts sums, per lane id, what the live lanes and the closed ones
// counted.
func (w *Worker) laneCounts() []laneCount {
	w.lanesMu.Lock()
	defer w.lanesMu.Unlock()
	counts := slices.Clone(w.retired)
	for l := range w.live {
		c := l.count()
		counts[l.id].batches += c.batches
		counts[l.id].ops += c.ops
	}
	return counts
}

// totals sums the lane counters.
func (w *Worker) totals() (batches, ops uint64) {
	for _, c := range w.laneCounts() {
		batches += c.batches
		ops += c.ops
	}
	return batches, ops
}

// Start begins accepting; open builds each connection's backend state. The
// frame adds the connection's scratch, and its lane unless the backend built
// one, so batches execute allocation-free.
func (w *Worker) Start(open func() Conn) {
	w.srv.Start(func() Handler {
		c, sc := open(), new(Scratch)
		lane := c.Lane
		if lane == nil {
			lane = w.NewLane()
		}
		return Handler{
			Execute: func(req *wire.BatchRequest) (*wire.BatchReply, *wire.ErrorReply) {
				return w.Execute(req, c.Apply, sc, lane)
			},
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
// the rollback fence) with the counters it reports into. Each connection —
// and each co-located caller — owns one; a Lane must not be used by two
// batches concurrently.
type Lane struct {
	w    *Worker
	id   int
	exec *libdpr.ExecLane
	// The dependency the lane recorded last and where; a session repeats it
	// until its other worker's version moves, so most batches skip the call.
	// The world-line is part of the key: a rollback forgets what was recorded
	// under the versions it erased, and they come round again.
	depWL  core.WorldLine
	depVer core.Version
	dep    core.Token
	// batches counts the batches the lane has executed, and extra the
	// operations beyond one in each: a b = 1 batch moves one word. The lane is
	// their only writer; the batch histograms sample the batches it numbers 0
	// mod sampleEvery. On a line of their own.
	_       [64]byte
	batches atomic.Uint64
	extra   atomic.Uint64
	_       [48]byte
}

// count reads the lane's counters.
func (l *Lane) count() laneCount {
	b := l.batches.Load()
	return laneCount{batches: b, ops: b + l.extra.Load()}
}

// NewLane registers an execution lane under the next lane id (round-robin).
// Close it when the connection or co-located caller is done.
func (w *Worker) NewLane() *Lane { return w.newLane(w.dpr.NewLane()) }

// NewLaneOn is NewLane on an epoch slot the caller owns, of table t: the
// slot of the store session the caller's batches execute on, held once per
// batch (libdpr.Worker.NewLaneOn).
func (w *Worker) NewLaneOn(t *epoch.Table, slot *epoch.Slot) *Lane {
	return w.newLane(w.dpr.NewLaneOn(t, slot))
}

func (w *Worker) newLane(exec *libdpr.ExecLane) *Lane {
	l := &Lane{w: w, id: int(w.laneSeq.Add(1)-1) % w.ids, exec: exec}
	w.lanesMu.Lock()
	w.live[l] = struct{}{}
	w.lanesMu.Unlock()
	return l
}

// Park moves the batch in flight off a lent slot before it waits on the
// device (libdpr.ExecLane.Park).
func (l *Lane) Park() { l.exec.Park() }

// Close unregisters the lane from rollback-fence accounting and leaves its
// counts to its id.
func (l *Lane) Close() {
	l.exec.Close()
	w := l.w
	w.lanesMu.Lock()
	if _, ok := w.live[l]; ok {
		c := l.count()
		w.retired[l.id].batches += c.batches
		w.retired[l.id].ops += c.ops
		delete(w.live, l)
	}
	w.lanesMu.Unlock()
}

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
	executed := lane.batches.Load() // the lane is the only writer
	sampled := executed%sampleEvery == 0
	var start time.Duration
	if sampled {
		start = time.Since(clockBase)
	}
	if _, err := w.dpr.AdmitBatchGuarded(req.Header, lane.exec); err != nil {
		return nil, w.admissionRefusal(err)
	}
	n := len(req.Ops)
	sc.results = slices.Grow(sc.results[:0], n)[:n]
	sc.versions = slices.Grow(sc.versions[:0], n)[:n]
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
	lane.batches.Store(executed + 1)
	if n > 1 {
		lane.extra.Add(uint64(n - 1))
	}
	if sampled {
		w.batchOpsH.ObserveValue(uint64(n))
		w.batchLatH.Observe(time.Since(clockBase) - start)
	}
	w.dpr.ReleaseBatch(req.Header, lane.exec, true)
	return &sc.reply, nil
}

// admissionRefusal answers a batch that libDPR did not admit.
func (w *Worker) admissionRefusal(err error) *wire.ErrorReply {
	code := wire.ErrCodeRejected
	if errors.Is(err, libdpr.ErrStaleBatch) {
		code = wire.ErrCodeStale
	}
	return &wire.ErrorReply{Code: code, WorldLine: w.dpr.WorldLine(), Message: err.Error()}
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
