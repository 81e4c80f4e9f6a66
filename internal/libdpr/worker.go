// Package libdpr implements the libDPR library of paper §6: everything
// needed to add DPR semantics to an unmodified cache-store. The server-side
// Worker wraps a StateObject, admitting request batches (world-line checks,
// version fast-forward per the §3.2 progress rule), tracking cross-shard
// dependencies from batch headers, triggering periodic commits, reporting
// persisted versions to the DPR finder, and rolling itself back when the
// finder's world-line moves past its own. The client-side Session assigns
// sequence numbers, computes dependency headers, tracks committed prefixes,
// and detects rollbacks.
package libdpr

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/core"
	"dpr/internal/epoch"
	"dpr/internal/hrtimer"
	"dpr/internal/metadata"
	"dpr/internal/obs"
)

// StateObject extends core.StateObject with what libDPR needs to run the
// progress protocol and the commit plane: the current version, a commit that
// starts only on an idle store, and a callback when a checkpoint is durable
// (§6). The store owns its seals: a seal is under way from its start until
// its OnPersist call has returned, and BeginCommit at or below the version in
// flight starts nothing new.
type StateObject interface {
	core.StateObject
	// CurrentVersion returns the version new operations execute in.
	CurrentVersion() core.Version
	// BeginCommitIdle is BeginCommit(v) on an idle store: it starts a seal
	// only if none is under way and persisted, the version the caller read, is
	// still the persisted one, and reports whether it did.
	BeginCommitIdle(v, persisted core.Version) (started bool, err error)
	// OnPersist registers the function the store invokes every time a
	// checkpoint seals (its persisted version advances), with how long that
	// seal took by the store's clock, from its own checkpoint goroutine,
	// possibly holding internal locks. The worker's handler therefore only
	// stores atomics and pokes a saturating channel, and never blocks or
	// re-enters the store.
	OnPersist(func(v core.Version, took time.Duration))
}

// BatchHeader is the DPR header prepended to every request batch (§6:
// "Messages are serialized into batches, enhanced with a DPR-specific
// header").
type BatchHeader struct {
	SessionID uint64
	WorldLine core.WorldLine
	// Vs is the session's version clock; the worker must execute the batch
	// in a version >= Vs (§3.2).
	Vs core.Version
	// SeqStart numbers the batch's first operation in the session order.
	SeqStart uint64
	// NumOps is the number of operations in the batch.
	NumOps uint32
	// Dep is the token of the session's most recently completed operation,
	// the cross-shard dependency this batch introduces (zero Version means
	// no dependency).
	Dep core.Token
	// Redirected marks a client's re-drive of a range that did not settle: a
	// batch a worker refused without executing it, a frame that never reached
	// a worker, or a read whose reply was lost with its connection (a read
	// that executes twice changes nothing). The worker's session gate admits
	// it even below the fence: a stranded read arrives again at the worker
	// that executed it, which has executed the session's later batches by
	// then.
	Redirected bool
}

// BatchReply is the DPR portion of a batch response.
type BatchReply struct {
	WorldLine core.WorldLine
	// Versions holds, per operation, the version it executed in on this
	// worker; together with the worker id they form the operation's token.
	Versions []core.Version
	// Cut piggybacks the worker's latest view of the DPR cut so clients
	// learn commit progress without polling the finder.
	Cut core.Cut
	// CutGen, when non-zero, names the immutable snapshot Cut was taken from,
	// uniquely in this process: a co-located session recognises the cut it
	// folded last by it. It is not sent on the wire; zero means compare entries.
	CutGen uint64
	// EncodedCut is Cut as WorkerConfig.EncodeCut serialized it, set by Reply
	// from the same snapshot (nil without an encoder). The serving layer
	// splices it into the reply frame; a session does not read it.
	EncodedCut []byte
}

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	ID core.WorkerID
	// Addr is advertised in the membership table.
	Addr string
	// CheckpointInterval is the heartbeat behind the commit pump (the paper
	// commits every 100ms in its evaluation). Commits are started by the pump
	// when batches execute, paced by the seal's measured duration (see
	// pumpGapSeals), so commit latency is O(seal duration), not
	// O(CheckpointInterval); the heartbeat does what the push signals cannot
	// see (see maintenanceLoop). <= 0 makes a manual worker: no pump, a
	// heartbeat (at manualHeartbeat) that commits nothing — commits are
	// triggered by the caller or by version fast-forward.
	CheckpointInterval time.Duration
	// EncodeCut, when set, is called once per state refresh to pre-serialize
	// the piggybacked cut (the cut changes once per commit round, while
	// replies go out per batch). Reply returns the result as
	// BatchReply.EncodedCut, which the serving layer splices verbatim into
	// reply frames. libdpr cannot import the wire format, so the encoder is
	// injected.
	EncodeCut func(core.Cut) []byte
	// Obs is the metric registry DPR instruments register into (nil selects
	// obs.Default). Observability is always on; the instruments are atomic
	// counters and scrape-time gauges, so the cost off the scrape path is a
	// few atomic ops on rare events and zero on the batch hot path.
	Obs *obs.Registry
}

// admitTimeout bounds how long a batch waits at admission: for this worker to
// reach the batch's (future) world-line, for a version fast-forward, or for a
// rollback fence to drop.
const admitTimeout = 5 * time.Second

// manualHeartbeat is the heartbeat of a worker with no CheckpointInterval,
// and the backstop of a session waiting for a commit (it has no interval).
const manualHeartbeat = 50 * time.Millisecond

// gateIdleAge is how long a session's execution gate may sit unused before
// its fence is aged into the archive table.
const gateIdleAge = time.Minute

// Worker is the server-side libDPR state for one StateObject shard.
type Worker struct {
	cfg  WorkerConfig
	so   StateObject
	meta metadata.Service
	wl   *core.WorldLineTracker
	// admitTimeout is the package constant; tests shorten it.
	admitTimeout time.Duration

	depsMu sync.Mutex
	deps   map[core.Version]map[core.Token]struct{}

	cutMu sync.Mutex
	// vmax is the finder's Vmax — the highest version any worker has closed
	// or persisted — as of the last refresh, and vmaxWL the world-line it was
	// read on: a version announced before a rollback is nobody's target after
	// it (see knownVmax).
	vmax     core.Version
	vmaxWL   core.WorldLine
	reported core.Version
	// cutSnap is the worker's one view of the DPR cut, an immutable snapshot
	// published atomically so the per-operation Reply path is allocation-free;
	// every reader (Reply, CommittedVersion, the gauges and DebugState) loads
	// it. The snapshot is tagged with the world-line it was observed on:
	// version numbers restart across world-lines, so a reply must never pair
	// one world-line with another world-line's cut — a client session could
	// commit erased operations whose tokens merely collide numerically. A
	// refresh publishes a world-line's cut only once this worker has rolled
	// back into that world-line.
	cutSnap atomic.Pointer[cutSnapshot]

	// dirty + dirtyCh drive the commit pump: ReleaseBatch marks the worker
	// dirty after an executed batch (one atomic on the hot path; the
	// channel send only happens on the false→true edge) and commitPump
	// folds marks into paced TriggerCommit calls. persistCh carries the
	// state object's OnPersist notifications to the maintenance loop, which
	// reports the new version at once. Both channels have capacity 1 and
	// saturate; the signals are level-triggered.
	dirty     atomic.Bool
	dirtyCh   chan struct{}
	persistCh chan struct{}
	// The last seal's end (unix nanos) and duration, as the persist
	// notification reports them: the pump's pacing input.
	sealEnd atomic.Int64
	sealDur atomic.Int64
	sealH   *obs.Histogram
	// moved is the broadcast await parks on: closed and replaced (see wake)
	// whenever a seal lands or a refresh moves Vmax or its world-line, the
	// inputs of pumpDeadline.
	moved atomic.Pointer[chan struct{}]

	// cutObs, when set, is invoked from refreshState whenever the
	// piggybackable cut snapshot changes (new world-line or different cut),
	// with the originating world-line and the pre-encoded cut bytes. The
	// serving layer uses it to push unsolicited cut-advance frames to idle
	// sessions. Runs on the maintenance/watch goroutine: keep it fast and
	// never call back into the worker.
	cutObs atomic.Pointer[func(core.WorldLine, []byte)]

	// exec + rbFence + rbMu fence rollbacks against in-flight batch
	// execution without a shared mutex on the hot path. Every execution lane
	// (one per serving connection/core) owns an epoch slot in exec; a batch
	// pins its lane's slot from guarded admission to release. rollback
	// publishes the target world-line in rbFence and then drains exec:
	// because the fence store precedes the drain's era bump and a batch
	// loads rbFence after entering its slot, any batch that misses the fence
	// necessarily entered under the pre-bump era and is waited out by the
	// drain, while any batch entering after the bump necessarily sees the
	// fence and backs off — in-flight effects are fully applied before the
	// restore decides what survives, and no new batch starts until it
	// completes. This replaces the former execMu RWMutex, whose shared
	// reader count was the last cross-core serialization point on the batch
	// path.
	//
	// rbMu serializes rollback itself: the watch loop and the heartbeat both
	// refresh from the finder and can race into the same world-line, and a
	// duplicate Restore would silently erase operations executed between the
	// two calls. rbMu is the outermost worker lock —
	// the bookkeeping locks are only ever taken under it during rollback,
	// never the other way around. The session gate is never held together
	// with rbMu; admission pins a lane slot (not a lock) around it.
	//
	// rollback also calls so.Restore while holding rbMu, so the state
	// object's internal locks nest under it too (the store never calls
	// back into the worker, so the inverse nesting cannot form).
	//
	//dpr:lockorder libdpr.Worker.rbMu < libdpr.Worker.depsMu
	//dpr:lockorder libdpr.Worker.rbMu < libdpr.Worker.cutMu
	//dpr:lockorder libdpr.Worker.rbMu < dredis.stateObject.latch
	//dpr:lockorder libdpr.Worker.rbMu < dredis.stateObject.savesMu
	exec    *epoch.Table
	rbFence atomic.Uint64
	rbMu    sync.Mutex
	// rollbackDrainH observes how long each rollback fence drain waited for
	// in-flight batches.
	rollbackDrainH *obs.Histogram

	// gates holds one execution gate per client session (keyed by
	// BatchHeader.SessionID): batches of one session are serialized and
	// sequence-fenced so a stale batch — delivered late over a connection
	// the client already abandoned — cannot execute after newer operations
	// of the same session already ran and reorder the session's history.
	//
	// Gates of sessions idle for gateIdleAge are aged out of the sync.Map
	// into archived, a plain map of two-word fence records, and rehydrated on
	// the session's next batch — so a million dormant sessions cost a compact
	// table, not a million live mutexes. The fence survives the round trip
	// exactly: a stale batch for an aged session is still rejected after
	// rehydration. gateEra is the coarse clock (one tick per heartbeat) gates
	// stamp on use.
	gates   sync.Map // uint64 -> *sessionGate
	gateEra atomic.Uint64
	archMu  sync.Mutex
	// archived maps an aged session id to its frozen fence record.
	archived map[uint64]gateRec

	// Observability: the lifecycle trace ring, the last successful finder
	// refresh (unixnano, for the refresh-age gauge), and the event counters.
	// Everything here is atomic; the batch hot path touches the counters
	// only on rejection.
	trace         *obs.Trace
	refreshedAt   atomic.Int64
	rollbacksC    *obs.Counter
	rejectedC     *obs.Counter
	staleC        *obs.Counter
	fastForwardsC *obs.Counter
	// Commit rounds this worker opened (closed a version above Vmax, and said
	// so) and joined (closed a version a peer had closed already).
	initiatedC *obs.Counter
	joinedC    *obs.Counter

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewWorker registers the worker with the metadata service and starts its
// background maintenance loop.
func NewWorker(cfg WorkerConfig, so StateObject, meta metadata.Service) (*Worker, error) {
	if err := meta.RegisterWorker(cfg.ID, cfg.Addr); err != nil {
		return nil, err
	}
	_, _, wl, err := meta.State()
	if err != nil {
		return nil, err
	}
	// A worker starts in wl with nothing to roll back: a fresh store, or one a
	// restart recovered at wl's cut. Say so, or a recovery round in flight
	// would wait out its bound for a rollback this worker never runs.
	_ = meta.AckWorldLine(cfg.ID, wl)
	w := &Worker{
		cfg:          cfg,
		so:           so,
		meta:         meta,
		wl:           core.NewWorldLineTracker(wl),
		admitTimeout: admitTimeout,
		deps:         make(map[core.Version]map[core.Token]struct{}),
		exec:         epoch.NewTable(),
		archived:     make(map[uint64]gateRec),
		dirtyCh:      make(chan struct{}, 1),
		persistCh:    make(chan struct{}, 1),
		stop:         make(chan struct{}),
	}
	moved := make(chan struct{})
	w.moved.Store(&moved)
	snap := &cutSnapshot{wl: wl, cut: make(core.Cut), gen: cutGens.Add(1)}
	if cfg.EncodeCut != nil {
		snap.encoded = cfg.EncodeCut(snap.cut)
	}
	w.cutSnap.Store(snap)
	w.reported = so.PersistedVersion()
	w.registerObs()
	// Runs on the store's checkpoint goroutine: record the seal, hand off
	// through the saturating channel, never block or call back into the store.
	so.OnPersist(func(_ core.Version, took time.Duration) {
		w.sealDone(took)
		select {
		case w.persistCh <- struct{}{}:
		default:
		}
	})
	w.wg.Add(2)
	go w.maintenanceLoop()
	go w.watchLoop()
	if cfg.CheckpointInterval > 0 {
		w.wg.Add(1)
		go w.commitPump()
	}
	return w, nil
}

// registerObs registers the worker's DPR instruments. Gauges are
// callback-backed (cost paid at scrape time only) and re-registering — a
// restarted worker with the same id — rebinds them to the new instance.
func (w *Worker) registerObs() {
	reg := w.cfg.Obs
	if reg == nil {
		reg = obs.Default
	}
	w.trace = obs.NewTrace(obs.DefaultTraceSize)
	w.refreshedAt.Store(time.Now().UnixNano())
	lbl := obs.L("worker", strconv.FormatUint(uint64(w.cfg.ID), 10))
	reg.GaugeFunc("dpr_worker_world_line",
		"Current world-line of this worker.",
		func() float64 { return float64(w.wl.Current()) }, lbl)
	reg.GaugeFunc("dpr_worker_current_version",
		"Version new operations execute in.",
		func() float64 { return float64(w.so.CurrentVersion()) }, lbl)
	reg.GaugeFunc("dpr_worker_persisted_version",
		"Newest locally durable version.",
		func() float64 { return float64(w.so.PersistedVersion()) }, lbl)
	reg.GaugeFunc("dpr_worker_committed_version",
		"This worker's position in its view of the DPR cut.",
		func() float64 { self, _ := w.cutPositions(); return float64(self) }, lbl)
	reg.GaugeFunc("dpr_worker_cut_lag",
		"Versions this worker's cut position trails the fastest worker's.",
		func() float64 {
			self, max := w.cutPositions()
			return float64(max - self)
		}, lbl)
	reg.GaugeFunc("dpr_worker_refresh_age_seconds",
		"Seconds since the cut/world-line view was last refreshed from the finder.",
		func() float64 {
			return time.Since(time.Unix(0, w.refreshedAt.Load())).Seconds()
		}, lbl)
	reg.GaugeFunc("dpr_worker_sessions",
		"Client sessions with execution state on this worker.",
		func() float64 { return float64(w.sessionCount()) }, lbl)
	w.rollbacksC = reg.Counter("dpr_worker_rollbacks_total",
		"Completed rollback rounds on this worker.", lbl)
	w.rejectedC = reg.Counter("dpr_worker_batches_rejected_total",
		"Batches rejected at admission (client behind a world-line).", lbl)
	w.staleC = reg.Counter("dpr_worker_batches_stale_total",
		"Batches rejected by the session sequence fence (late redelivery).", lbl)
	w.fastForwardsC = reg.Counter("dpr_worker_version_fast_forwards_total",
		"Admissions that forced a commit to satisfy the progress rule.", lbl)
	const roundsHelp = "Commits started by this worker: initiated closed a version above Vmax, joined one a peer had closed."
	w.initiatedC = reg.Counter("dpr_worker_commit_rounds_total", roundsHelp, lbl, obs.L("role", "initiated"))
	w.joinedC = reg.Counter("dpr_worker_commit_rounds_total", roundsHelp, lbl, obs.L("role", "joined"))
	w.rollbackDrainH = reg.Histogram("dpr_worker_rollback_drain_seconds",
		"Time each rollback fence drain waited for in-flight batches.", lbl)
	w.sealH = reg.Histogram("dpr_seal_seconds",
		"Duration of each seal, timed by the state object from its start to its persist notification.", lbl)
}

// cutPositions returns this worker's position in its published cut and the
// maximum position across the cut (the fastest worker).
func (w *Worker) cutPositions() (self, max core.Version) {
	cut := w.cutSnap.Load().cut
	return cut.Get(w.cfg.ID), cut.Max()
}

func (w *Worker) sessionCount() int {
	n := 0
	w.gates.Range(func(_, _ any) bool { n++; return true })
	w.archMu.Lock()
	n += len(w.archived)
	w.archMu.Unlock()
	return n
}

// DebugState assembles the /debug/dpr snapshot for this worker; the serving
// layer (dfaster/dredis) layers its own fields on top.
func (w *Worker) DebugState(kind string) obs.DPRState {
	cut := w.cutSnap.Load().cut
	self, max := cut.Get(w.cfg.ID), cut.Max()
	cutJSON := make(map[string]uint64, len(cut))
	for id, v := range cut {
		cutJSON[strconv.FormatUint(uint64(id), 10)] = uint64(v)
	}
	var pump string
	if w.cfg.CheckpointInterval > 0 {
		pump = "adaptive"
	}
	return obs.DPRState{
		Worker:               uint64(w.cfg.ID),
		Kind:                 kind,
		CheckpointIntervalMS: float64(w.cfg.CheckpointInterval) / float64(time.Millisecond),
		CommitPump:           pump,
		CommitGapMS:          float64(w.commitGap()) / float64(time.Millisecond),
		RoundsInitiated:      w.initiatedC.Value(),
		RoundsJoined:         w.joinedC.Value(),
		MetaWatch:            true,
		WorldLine:            uint64(w.wl.Current()),
		CurrentVersion:       uint64(w.so.CurrentVersion()),
		PersistedVersion:     uint64(w.so.PersistedVersion()),
		CommittedVersion:     uint64(self),
		CutMax:               uint64(max),
		CutLag:               uint64(max - self),
		Cut:                  cutJSON,
		Sessions:             w.sessionCount(),
		Rollbacks:            w.rollbacksC.Value(),
		RejectedBatches:      w.rejectedC.Value(),
		StaleBatches:         w.staleC.Value(),
		RefreshAgeSeconds:    time.Since(time.Unix(0, w.refreshedAt.Load())).Seconds(),
		Trace:                w.trace.Snapshot(),
	}
}

// ID returns the worker's id.
func (w *Worker) ID() core.WorkerID { return w.cfg.ID }

// StateObject returns the wrapped store.
func (w *Worker) StateObject() StateObject { return w.so }

// WorldLine returns the worker's current world-line.
func (w *Worker) WorldLine() core.WorldLine { return w.wl.Current() }

// ErrBatchRejected is returned when a batch cannot be admitted because the
// client operates on an older world-line and must first recover.
var ErrBatchRejected = errors.New("libdpr: batch rejected, client must recover")

// ErrStaleBatch is returned when a batch's sequence range was already
// superseded within the session — a late delivery over a connection the
// client has abandoned. The client has long resolved these operations as
// failed; executing them would reorder the session's history.
var ErrStaleBatch = errors.New("libdpr: stale batch, sequence range superseded")

// sessionGate serializes and sequence-fences one session's batch executions
// on this worker.
type sessionGate struct {
	mu sync.Mutex
	// wl is the world-line of the last admitted batch; sequence numbers
	// restart when the session moves to a new world-line (the tracker
	// truncates to the surviving prefix and reissues).
	wl core.WorldLine
	// next is the lowest sequence number still acceptable (one past the
	// highest executed batch).
	next uint64
	// era is the gateEra tick of the last admission; the sweep ages gates
	// whose era is at or below its cutoff.
	era uint64
	// dead marks a gate the sweep has archived and removed from the map;
	// a goroutine that locked a dead gate must re-lookup (rehydrating from
	// the archive) instead of using it.
	dead bool
}

// gateRec is the compact archived form of an idle session's gate: just the
// fence. The mutex is recreated on rehydration.
type gateRec struct {
	wl   core.WorldLine
	next uint64
}

func (w *Worker) gate(session uint64) *sessionGate {
	if g, ok := w.gates.Load(session); ok {
		return g.(*sessionGate)
	}
	// Miss: the gate is either new or archived. The archive read and the
	// map insert happen under archMu, the same lock the sweep holds while
	// moving a gate the other way, so a rehydration can never insert a
	// fence record the sweep has since superseded.
	g := &sessionGate{era: w.gateEra.Load()}
	w.archMu.Lock()
	if rec, had := w.archived[session]; had {
		g.wl, g.next = rec.wl, rec.next
	}
	actual, loaded := w.gates.LoadOrStore(session, g)
	if !loaded {
		delete(w.archived, session)
	}
	w.archMu.Unlock()
	return actual.(*sessionGate)
}

// sweepGates archives every gate not used since era tick cutoff: the fence
// record moves into the compact archive table and the live gate is removed
// from the map, atomically with respect to gate() under archMu. Runs on the
// maintenance goroutine, off the batch path; busy gates (TryLock failure) are
// skipped and revisited on the next sweep.
//
//dpr:lockorder libdpr.sessionGate.mu < libdpr.Worker.archMu
func (w *Worker) sweepGates(cutoff uint64) {
	w.gates.Range(func(k, v any) bool {
		g := v.(*sessionGate)
		if !g.mu.TryLock() {
			return true
		}
		if !g.dead && g.era <= cutoff {
			g.dead = true
			w.archMu.Lock()
			w.archived[k.(uint64)] = gateRec{wl: g.wl, next: g.next}
			w.gates.Delete(k)
			w.archMu.Unlock()
		}
		g.mu.Unlock()
		return true
	})
}

// admitBatch performs the server-side libDPR work before a batch executes
// (§6): world-line admission and version fast-forward. On success it returns
// the world-line the batch executes in. It guards nothing: AdmitBatchGuarded
// is the one way in.
func (w *Worker) admitBatch(h BatchHeader) (core.WorldLine, error) {
	if err := w.wl.Admit(h.WorldLine, w.admitTimeout); err != nil {
		w.rejectedC.Inc()
		w.trace.Record(obs.EvBatchRejected, uint64(w.wl.Current()), uint64(h.WorldLine), 0)
		return w.wl.Current(), fmt.Errorf("%w (worker at %d, batch at %d)",
			ErrBatchRejected, w.wl.Current(), h.WorldLine)
	}
	// Progress rule: execute only in a version >= Vs. Fast-forward by
	// committing until the version catches up.
	if h.Vs > w.so.CurrentVersion() {
		w.fastForwardsC.Inc()
		if err := w.so.BeginCommit(h.Vs - 1); err != nil {
			return w.wl.Current(), err
		}
		deadline := time.Now().Add(w.admitTimeout)
		for w.so.CurrentVersion() < h.Vs {
			if time.Now().After(deadline) {
				return w.wl.Current(), fmt.Errorf("libdpr: version fast-forward to %d timed out", h.Vs)
			}
			hrtimer.Sleep(50 * time.Microsecond)
		}
	}
	return w.wl.Current(), nil
}

// ExecLane is one execution lane's registration in the worker's rollback
// fence: an epoch slot a batch pins for the duration of its execution. The
// serving layer creates one lane per connection (or per core) — lanes on
// different cores never write the same cache line on the batch hot path,
// unlike the former shared RWMutex reader count. A lane must not be used by
// two batches concurrently (connections are already sequential).
type ExecLane struct {
	w    *Worker
	slot *epoch.Slot
	// gate is the gate of session, the lane's last: locked from a successful
	// AdmitBatchGuarded to its ReleaseBatch, and where the session's next batch
	// finds it without the worker's map (unless the sweep has aged it out).
	gate    *sessionGate
	session uint64
}

// NewLane registers an execution lane. Close it when the connection ends.
func (w *Worker) NewLane() *ExecLane {
	return &ExecLane{w: w, slot: w.exec.Register()}
}

// Close unregisters the lane from rollback-fence accounting.
func (l *ExecLane) Close() { l.w.exec.Unregister(l.slot) }

// AdmitBatchGuarded is admitBatch plus the execution guard: on success the
// admission is pinned until ReleaseBatch — rollbacks are held off (the
// lane's epoch slot is entered, and the rollback fence drains all lanes) and
// the session's gate is held, so same-session batches execute strictly in
// sequence order and a stale batch from an abandoned connection is rejected
// with ErrStaleBatch instead of clobbering newer state. Every successful
// call MUST be paired with ReleaseBatch(h, lane, executed): executed
// advances the session fence; pass false when the batch was refused after
// admission (e.g. ownership) so the client can retransmit the same numbers.
func (w *Worker) AdmitBatchGuarded(h BatchHeader, lane *ExecLane) (core.WorldLine, error) {
	wl, err := w.admitBatch(h)
	if err != nil {
		return wl, err
	}
	// Pin the lane, then check the fence. The order matters: rollback stores
	// the fence before bumping the era it drains, so (sequentially consistent
	// atomics) a batch that loads a zero fence entered its slot under the
	// pre-bump era and the drain waits it out; a batch entering post-bump
	// sees the fence and backs off here.
	var deadline time.Time
	for {
		lane.slot.Enter()
		if w.rbFence.Load() == 0 {
			break
		}
		lane.slot.Exit()
		if deadline.IsZero() {
			deadline = time.Now().Add(w.admitTimeout)
		} else if time.Now().After(deadline) {
			w.rejectedC.Inc()
			cur := w.wl.Current()
			w.trace.Record(obs.EvBatchRejected, uint64(cur), uint64(h.WorldLine), 0)
			return cur, fmt.Errorf("%w (rollback fence held past admit timeout)", ErrBatchRejected)
		}
		hrtimer.Sleep(20 * time.Microsecond)
	}
	// Recheck under the guard: a rollback may have completed between
	// admission and the slot entry, and this batch would execute against
	// post-rollback state.
	if cur := w.wl.Current(); cur > h.WorldLine {
		lane.slot.Exit()
		w.rejectedC.Inc()
		w.trace.Record(obs.EvBatchRejected, uint64(cur), uint64(h.WorldLine), 0)
		return cur, fmt.Errorf("%w (worker at %d, batch at %d)", ErrBatchRejected, cur, h.WorldLine)
	}
	g := lane.gate
	if g == nil || lane.session != h.SessionID {
		g = w.gate(h.SessionID)
	}
	g.mu.Lock()
	for g.dead {
		// The sweep archived this gate since it was looked up; its fence now
		// lives in the archive table. Re-look-up: gate() rehydrates from the
		// record the sweep wrote.
		g.mu.Unlock()
		g = w.gate(h.SessionID)
		g.mu.Lock()
	}
	lane.gate, lane.session = g, h.SessionID
	g.era = w.gateEra.Load()
	if h.WorldLine > g.wl {
		// The session crossed a rollback; its sequence space restarted.
		g.wl, g.next = h.WorldLine, 0
	}
	if h.SeqStart < g.next && !h.Redirected {
		fence := g.next
		g.mu.Unlock()
		lane.slot.Exit()
		w.staleC.Inc()
		w.trace.Record(obs.EvBatchStale, h.SessionID, fence, h.SeqStart)
		return wl, fmt.Errorf("%w (session %d fenced at seq %d, batch starts at %d)",
			ErrStaleBatch, h.SessionID, fence, h.SeqStart)
	}
	return wl, nil //dpr:ignore mutex-discipline,epoch-discipline guarded admission: success deliberately returns holding the lane's epoch slot and the session gate; ReleaseBatch is the paired release
}

// ReleaseBatch ends the execution pinned by a successful AdmitBatchGuarded.
// An executed batch marks the worker dirty, arming the commit pump: the next
// group commit starts as soon as the pump's pacing allows, not on the next
// heartbeat. (A manual worker has no pump to wake; the mark is harmless.)
func (w *Worker) ReleaseBatch(h BatchHeader, lane *ExecLane, executed bool) {
	g := lane.gate // locked by the admission this call pairs with
	if executed {
		if end := h.SeqStart + uint64(h.NumOps); end > g.next {
			g.next = end
		}
	}
	g.mu.Unlock()
	lane.slot.Exit()
	if executed && !w.dirty.Load() && !w.dirty.Swap(true) {
		// False→true edge: wake the pump. The channel saturates at one
		// token, so the steady-state hot-path cost is the Load alone.
		select {
		case w.dirtyCh <- struct{}{}:
		default:
		}
	}
}

// cutSnapshot is an immutable (world-line, cut, pre-encoded cut) triple. It
// is built and swapped in whole so readers always see a consistent pair of
// cut and originating world-line; gen is its number among all the snapshots
// this process has published (BatchReply.CutGen).
type cutSnapshot struct {
	wl      core.WorldLine
	cut     core.Cut
	encoded []byte
	gen     uint64
}

var cutGens atomic.Uint64

// RecordDependency attributes the batch's dependency token to a version the
// batch's operations executed in. Call once per distinct version in the
// batch after execution; self-dependencies are ignored. A set insert, and
// idempotent: the serving frame skips the call when a lane repeats the pair it
// recorded last, which is the steady state between two cut refreshes.
func (w *Worker) RecordDependency(v core.Version, dep core.Token) {
	if dep.Version == 0 || dep.Worker == w.cfg.ID {
		return
	}
	w.depsMu.Lock()
	set, ok := w.deps[v]
	if !ok {
		set = make(map[core.Token]struct{})
		w.deps[v] = set
	}
	set[dep] = struct{}{}
	w.depsMu.Unlock()
}

// Reply assembles the DPR reply header for a batch whose operations executed
// in the given versions. The cut is piggybacked only when its originating
// world-line matches the worker's current one (they diverge transiently
// around rollbacks); callers holding the execution guard see a frozen
// world-line, making the pairing exact. The returned cut is a shared
// immutable snapshot, and so is its encoding: callers must treat both as
// read-only. Reply performs no allocation.
//
//dpr:noalloc
func (w *Worker) Reply(versions []core.Version) BatchReply {
	r := BatchReply{WorldLine: w.wl.Current(), Versions: versions}
	if snap := w.cutSnap.Load(); snap.wl == r.WorldLine {
		r.Cut, r.CutGen, r.EncodedCut = snap.cut, snap.gen, snap.encoded
	}
	return r
}

// CurrentCut returns the worker's published view of the DPR cut.
func (w *Worker) CurrentCut() core.Cut { return w.cutSnap.Load().cut.Clone() }

// CommittedVersion returns this worker's own position in the last DPR cut it
// published: every version at or below it is committed, so no rollback or
// recovery, on this world-line or a later one, restores the state object
// below it. A kv store holds its log compaction to this version. It takes no
// lock.
func (w *Worker) CommittedVersion() core.Version {
	return w.cutSnap.Load().cut.Get(w.cfg.ID)
}

// knownVmax returns the finder's Vmax as of the last refresh, or 0 when that
// refresh read another world-line than wl: the versions closed before a
// rollback are not targets after it.
func (w *Worker) knownVmax(wl core.WorldLine) core.Version {
	w.cutMu.Lock()
	defer w.cutMu.Unlock()
	if w.vmaxWL != wl {
		return 0
	}
	return w.vmax
}

// TriggerCommit starts a commit of everything up to the current version
// (the explicit group-commit-boundary API of §3). A target above Vmax opens a
// commit round: once the seal is under way the worker announces the version,
// and every busy peer closes it too (see commitPump). A target at Vmax joins
// the round of whoever closed it first.
func (w *Worker) TriggerCommit() error {
	_, err := w.triggerCommit(false, 0)
	return err
}

// triggerCommit is TriggerCommit, or with idle set the commit of the pump and
// the heartbeat, which starts only if the store is idle and persisted is still
// its persisted version (StateObject.BeginCommitIdle).
func (w *Worker) triggerCommit(idle bool, persisted core.Version) (started bool, err error) {
	wl := w.wl.Current()
	vmax := w.knownVmax(wl)
	// Fast-forward to Vmax so a lagging worker catches up in bounded time
	// (§3.4).
	target := max(w.so.CurrentVersion(), vmax)
	if idle {
		started, err = w.so.BeginCommitIdle(target, persisted)
	} else {
		started, err = true, w.so.BeginCommit(target)
	}
	if !started && err == nil {
		return false, nil
	}
	w.trace.Record(obs.EvCheckpointBegin, uint64(wl), uint64(target), 0)
	if err != nil {
		return false, err
	}
	if target > vmax {
		w.initiatedC.Inc()
		w.meta.AnnounceCommit(w.cfg.ID, wl, target)
	} else {
		w.joinedC.Inc()
	}
	return true, nil
}

// sealDone records that a seal which took took has landed: its end, its
// duration and the dpr_seal_seconds sample. It runs on the state object's
// checkpoint goroutine, one call at a time, so it only touches atomics.
func (w *Worker) sealDone(took time.Duration) {
	w.sealDur.Store(int64(took))
	w.sealH.Observe(took)
	w.sealEnd.Store(time.Now().UnixNano())
	w.wake()
}

// wake releases everyone parked in await to look at their condition again.
func (w *Worker) wake() {
	next := make(chan struct{})
	close(*w.moved.Swap(&next))
}

// await blocks until cond holds, re-evaluating it after every seal and every
// cut refresh, and reports whether it did before the timeout (or Stop). The
// timeout is the pump's deadline, a few hundred microseconds out: it runs on
// hrtimer, whose pooled timer also costs a wait no allocation.
func (w *Worker) await(timeout time.Duration, cond func() bool) bool {
	t := hrtimer.NewTimer(timeout)
	defer t.Release()
	for {
		moved := *w.moved.Load() // before cond: a wake landing in between closes it
		if cond() {
			return true
		}
		select {
		case <-moved:
		case <-t.C:
			return cond()
		case <-w.stop:
			return false
		}
	}
}

// rollback restores the StateObject to this worker's position in cut and
// advances to world-line wl (§4.1), then acks wl to the finder. refreshState
// runs it when the finder's world-line is ahead of the worker's; it is
// idempotent per world-line (see rbMu).
func (w *Worker) rollback(wl core.WorldLine, cut core.Cut) error {
	w.rbMu.Lock()
	defer w.rbMu.Unlock()
	if wl <= w.wl.Current() {
		return nil
	}
	// Raise the rollback fence, then drain every execution lane: in-flight
	// batch executions belong to the old world-line and must be fully
	// applied before the restore decides what survives, and no new batch
	// may start until it completes. See the exec/rbFence field comment for
	// the ordering argument.
	w.rbFence.Store(uint64(wl))
	defer w.rbFence.Store(0)
	drainStart := time.Now()
	w.exec.Drain()
	w.rollbackDrainH.Observe(time.Since(drainStart))
	w.trace.Record(obs.EvRollbackBegin, uint64(wl), uint64(cut.Get(w.cfg.ID)), 0)
	if err := w.so.Restore(cut.Get(w.cfg.ID)); err != nil {
		return err
	}
	// Drop dependency attribution for rolled-back versions.
	w.depsMu.Lock()
	for v := range w.deps {
		if v > cut.Get(w.cfg.ID) {
			delete(w.deps, v)
		}
	}
	w.depsMu.Unlock()
	w.cutMu.Lock()
	if w.reported > cut.Get(w.cfg.ID) {
		w.reported = cut.Get(w.cfg.ID)
	}
	w.cutMu.Unlock()
	w.wl.Advance(wl, cut)
	w.rollbacksC.Inc()
	w.trace.Record(obs.EvWorldLineBump, uint64(wl), 0, 0)
	w.trace.Record(obs.EvRollbackEnd, uint64(wl), uint64(cut.Get(w.cfg.ID)), 0)
	// Confirm the rollback so the recovery round (possibly in another
	// process) can resume DPR progress once everyone has reported (§4.1).
	_ = w.meta.AckWorldLine(w.cfg.ID, wl)
	return nil
}

// Stop halts background maintenance and deregisters nothing (membership is
// durable; workers that leave for good call Deregister separately).
func (w *Worker) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.wg.Wait()
}

// maintenanceLoop carries the latency-critical seal→report hop (persistCh)
// and the one heartbeat behind the event-driven plane: commits are started by
// the pump, reports by the persist notification, cut refreshes by the watch
// loop, and the heartbeat does what those cannot see or may have lost — Vmax
// catch-up on an idle worker (§3.4), the retry of a failed seal (a store that
// failed a seal is idle again, and tells nobody), a dropped notification, a
// watch loop backing off an error, the session-gate sweep.
func (w *Worker) maintenanceLoop() {
	defer w.wg.Done()
	period := w.cfg.CheckpointInterval
	if period <= 0 {
		period = manualHeartbeat
	}
	heartbeat := time.NewTicker(period)
	defer heartbeat.Stop()
	idleTicks := max(1, uint64(gateIdleAge/period))
	for {
		select {
		case <-w.stop:
			return
		case <-w.persistCh:
			// A checkpoint just sealed: report it now. The report bumps the
			// finder generation, which wakes the watch loop.
			w.reportPersisted()
		case <-heartbeat.C:
			if w.cfg.CheckpointInterval > 0 {
				// Declined while a seal is under way; a failed commit is
				// retried by a later heartbeat.
				_, _ = w.triggerCommit(true, w.so.PersistedVersion())
			}
			w.reportPersisted()
			w.refreshState()
			if era := w.gateEra.Add(1); era%idleTicks == 0 {
				w.sweepGates(era - idleTicks)
			}
		}
	}
}

// pumpGapSeals is the pump's duty-cycle constant: after a seal ends, the pump
// leaves pumpGapSeals times that seal's measured duration before it starts the
// next on its own, so a state object left to itself spends at most
// 1/(1+pumpGapSeals) of its time sealing whatever a seal costs — a 0.25 ms kv
// flush recurs every ~1 ms, a 40 ms snapshot every 160 ms. The gap paces the
// rounds a worker initiates. Joining a round a peer opened (see pumpDeadline)
// is not a second pacing rule: a join adds no round, it moves this worker's
// seal for a round that exists to where that round can complete, and the
// cluster's round rate stays that of its fastest pump. What a join may cost
// the joiner is bounded by the rest it keeps, one seal's duration — a duty
// cycle of at most 1/2, and only for a worker whose seals are slower than a
// peer's whole period. The value trades commit latency, one seal per unit,
// for the throughput of a saturated worker, which pays for every commit
// round: at 1 ycsb_a_batched lost a tenth of its throughput, at 2 and 3 about
// 4 % (EXPERIMENTS.md, the sweep and "Waits that end on time").
const pumpGapSeals = 3

// commitGap is the pause the pump currently leaves after a seal ends before
// it starts the next: pumpGapSeals times that seal's measured duration.
func (w *Worker) commitGap() time.Duration {
	return time.Duration(w.sealDur.Load()) * pumpGapSeals
}

// pumpDeadline is when (unix nanos) a dirty worker's pump may start its next
// seal. If a peer has closed a version this worker has not (Vmax is at or
// above the version still open here), the round exists and this worker is
// what it waits for: the deadline is one seal's duration after the last seal
// ended. Otherwise a seal would open a round, and those are commitGap apart.
func (w *Worker) pumpDeadline() int64 {
	rest := w.commitGap()
	if w.so.CurrentVersion() <= w.knownVmax(w.wl.Current()) {
		rest = time.Duration(w.sealDur.Load())
	}
	return w.sealEnd.Load() + int64(rest)
}

// commitPump converts dirty marks into group commits: at once when the
// worker has been idle, otherwise at pumpDeadline — which moves whenever a
// seal lands (the pump's own, or one forced by a version fast-forward or
// TriggerCommit) and whenever a refresh brings a Vmax this worker has not
// closed, all of which wake await. The commit starts only on an idle store
// whose persisted version is the one read before the deadline, and the pump
// parks until it lands, or for a heartbeat, which retries a failed seal.
// Declined, it waits for the landing, looking again after the last seal's
// duration (the seal may have failed, or its OnPersist call not returned), or
// after a heartbeat while no seal has landed and there is no call to wait out.
func (w *Worker) commitPump() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		case <-w.dirtyCh:
		}
		for {
			persisted := w.so.PersistedVersion() // before the deadline: a landing in between declines the commit
			at := w.pumpDeadline()
			wait := time.Until(time.Unix(0, at))
			if wait <= 0 {
				// Clear dirty before committing: work arriving mid-commit re-arms
				// the pump for another round instead of being lost.
				w.dirty.Store(false)
				end := w.sealEnd.Load()
				started, err := w.triggerCommit(true, persisted)
				if started {
					w.await(w.cfg.CheckpointInterval, func() bool { return w.sealEnd.Load() != end })
				}
				if started || err != nil {
					break // a failed commit is retried by the heartbeat
				}
				w.dirty.Store(true) // declined: nothing was committed
				wait = cmp.Or(time.Duration(w.sealDur.Load()), w.cfg.CheckpointInterval)
			}
			w.await(wait, func() bool { return w.pumpDeadline() != at })
			select {
			case <-w.stop:
				return
			default:
			}
		}
	}
}

// watchLoopPollTimeout bounds each long-poll leg so Stop() joins promptly
// and a silently dead finder connection degrades to heartbeat cadence.
const watchLoopPollTimeout = 250 * time.Millisecond

// watchLoop long-polls the finder for state-generation changes and refreshes
// the cut view the moment one lands. A timeout with an unchanged generation
// is an idle leg, not an error; on RPC errors the loop backs off one poll
// interval and the heartbeat carries the refresh in the meantime.
func (w *Worker) watchLoop() {
	defer w.wg.Done()
	var since uint64
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		gen, err := w.meta.WaitStateChange(since, watchLoopPollTimeout)
		if err != nil {
			select {
			case <-w.stop:
				return
			case <-time.After(watchLoopPollTimeout):
			}
			continue
		}
		if gen != since {
			since = gen
			w.refreshState()
		}
	}
}

// reportPersisted sends every newly persisted version to the finder, in
// order, with its dependency set. A report that fails — a metadata hiccup, or
// the finder refusing it because a recovery round is ahead of this worker —
// keeps its dependencies and is sent again by a later call; the rollback that
// joins the round drops what it erases.
func (w *Worker) reportPersisted() {
	persisted := w.so.PersistedVersion()
	w.cutMu.Lock()
	from := w.reported
	if persisted <= from {
		w.cutMu.Unlock()
		return
	}
	w.reported = persisted
	w.cutMu.Unlock()
	w.trace.Record(obs.EvCheckpointPersist, uint64(w.wl.Current()), uint64(persisted), 0)
	for v := from + 1; v <= persisted; v++ {
		w.depsMu.Lock()
		var deps []core.Token
		for t := range w.deps[v] {
			deps = append(deps, t)
		}
		w.depsMu.Unlock()
		if err := w.meta.ReportVersion(w.cfg.ID, v, deps); err != nil {
			// Regress the report pointer so we retry.
			w.cutMu.Lock()
			if w.reported >= v {
				w.reported = v - 1
			}
			w.cutMu.Unlock()
			return
		}
		w.depsMu.Lock()
		delete(w.deps, v)
		w.depsMu.Unlock()
	}
}

// refreshState pulls the cut, Vmax and world-line from the finder. A
// world-line ahead of the worker's means a recovery round has begun: the
// worker rolls itself back into it (the one rollback path, §4.1) BEFORE it
// takes in the cut, so it never advertises a cut for a world-line it has not
// joined. A rollback that fails leaves the worker's view where it was; the
// next refresh, which the heartbeat bounds, tries again.
func (w *Worker) refreshState() {
	cut, vmax, wl, err := w.meta.State()
	if err != nil {
		return
	}
	if cur := w.wl.Current(); wl > cur {
		// The worker may have missed more than one round; like a lagging
		// session, it must survive the whole chain, so the restore position
		// is the minimum over every skipped recovery's cut.
		rc, err := composeRecoveredCuts(w.meta, cur, wl)
		if err != nil || w.rollback(wl, rc) != nil {
			return
		}
	}
	w.cutMu.Lock()
	moved := vmax != w.vmax || wl != w.vmaxWL
	w.vmax, w.vmaxWL = vmax, wl
	w.cutMu.Unlock()
	if moved {
		w.wake() // the pump's deadline is the one waiter that reads Vmax
	}
	w.refreshedAt.Store(time.Now().UnixNano())
	prev := w.cutSnap.Load()
	if prev.wl == wl && prev.cut.Equal(cut) {
		return // the published snapshot, its generation and its encoding stand
	}
	if self := cut.Get(w.cfg.ID); self > prev.cut.Get(w.cfg.ID) {
		w.trace.Record(obs.EvCutAdvance, uint64(wl), uint64(self), uint64(cut.Max()))
	}
	snap := &cutSnapshot{wl: wl, cut: cut, gen: cutGens.Add(1)} // State's cut is immutable: no copy
	if w.cfg.EncodeCut != nil {
		snap.encoded = w.cfg.EncodeCut(snap.cut)
	}
	w.cutSnap.Store(snap)
	if f := w.cutObs.Load(); f != nil {
		(*f)(snap.wl, snap.encoded)
	}
}

// OnCutAdvance registers the streamed cut observer: fn is invoked from the
// refresh path whenever the piggybackable cut snapshot changes, with the
// world-line it was observed on and the pre-encoded cut bytes (nil when no
// EncodeCut is configured). The serving layer pushes these to idle sessions
// as unsolicited cut-advance frames, so a session that stops sending still
// sees its writes commit. The encoded bytes are shared and immutable; fn
// runs on a maintenance goroutine and must not block or call back into the
// worker. nil unregisters.
func (w *Worker) OnCutAdvance(fn func(core.WorldLine, []byte)) {
	if fn == nil {
		w.cutObs.Store(nil)
		return
	}
	w.cutObs.Store(&fn)
}
