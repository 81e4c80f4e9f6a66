package kv

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/core"
	"dpr/internal/epoch"
	"dpr/internal/storage"
)

// Phase of the global state machine (§5.5). REST is normal operation;
// IN_PROGRESS and WAIT_FLUSH belong to the CPR checkpoint machine; THROW and
// PURGE belong to the rollback machine. At most one machine runs at a time.
type Phase uint8

const (
	PhaseRest Phase = iota
	PhaseInProgress
	PhaseWaitFlush
	PhaseThrow
	PhasePurge
)

func (p Phase) String() string {
	switch p {
	case PhaseRest:
		return "REST"
	case PhaseInProgress:
		return "IN_PROGRESS"
	case PhaseWaitFlush:
		return "WAIT_FLUSH"
	case PhaseThrow:
		return "THROW"
	case PhasePurge:
		return "PURGE"
	default:
		return "UNKNOWN"
	}
}

// state packs (phase, version) into one atomic word: phase in the top 8
// bits, version in the low 48.
type state uint64

func makeState(p Phase, v core.Version) state { return state(uint64(p)<<56 | uint64(v)) }
func (s state) phase() Phase                  { return Phase(s >> 56) }
func (s state) version() core.Version         { return core.Version(uint64(s) & metaVersionMask) }

// versionRange is a half-open-on-the-left interval (lo, hi] of rolled-back
// versions; records stamped with a version inside any range are invisible.
type versionRange struct {
	Lo, Hi core.Version
}

func rangesContain(ranges []versionRange, v core.Version) bool {
	for _, r := range ranges {
		if v > r.Lo && v <= r.Hi {
			return true
		}
	}
	return false
}

// Config parameterizes a Store.
type Config struct {
	// BucketCount sizes the hash index in buckets (rounded up to a power of
	// two; 0 means 1<<16). A bucket is one 64-byte cache line of eight chain
	// entries, as in FASTER, so 1<<16 buckets are 4 MiB of mapped memory and
	// 524 288 chains; compaction's memo adds 8 bytes a bucket on the heap.
	BucketCount int
	// IndexShards splits the hash index into independent partitions (rounded
	// up to a power of two, at most 256) so concurrent execution lanes contend only within
	// a shard and whole-index passes (PURGE, recovery rebuild) parallelize
	// shard-by-shard. 0 selects a default sized to runtime.GOMAXPROCS,
	// capped at 16.
	IndexShards int
	// MemoryBudget caps the in-memory log size in bytes; older flushed
	// regions are evicted to the device and served via PENDING reads.
	// 0 means nothing is ever evicted; the log is then bounded by the store's
	// own compactor alone (compact.go), which paces itself and has no setting.
	// Once eviction has moved the head past the begin address the compactor
	// no longer runs: its scan needs the prefix resident.
	MemoryBudget int64
	// Blob names this store's log on the device (default "hlog").
	Blob string
}

// Store is the FasterKV instance: one StateObject shard.
type Store struct {
	cfg    Config
	device storage.Device
	log    *hlog
	index  *index
	epochs *epoch.Table

	st        atomic.Uint64 // packed state
	persisted atomic.Uint64 // largest durable version

	// rolledBack is the authoritative visibility filter: versions inside
	// any range were rolled back and must never be served.
	rolledBack atomic.Pointer[[]versionRange]

	// smMu serializes state machine runs (checkpoints, rollbacks, compaction
	// steps). smWaiting counts the checkpoints and rollbacks waiting for it:
	// a compaction step in progress ends at its next record when it is
	// non-zero.
	smMu      sync.Mutex
	smWaiting atomic.Int32
	// purgeWG tracks the background PURGE pass of a rollback; the next
	// state machine run waits for it so PURGE's invalid-bit writes never
	// overlap a checkpoint flush reading the same log bytes.
	purgeWG sync.WaitGroup
	// maxRequestedCkpt deduplicates concurrent checkpoint requests.
	maxRequestedCkpt atomic.Uint64
	// ckptRunning marks a checkpoint under way, until its OnPersist returns.
	ckptRunning atomic.Bool
	// ckptSeq is the sequence number of the newest durable checkpoint record
	// (guarded by smMu); the next seal writes ckptSeq+1 into the other slot.
	ckptSeq uint64

	pendingCh chan func()
	// taskSlots keeps the epoch slots background tasks have used
	// (taskSlot).
	taskSlots chan *epoch.Slot
	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup

	evicting atomic.Bool

	// Compaction (compact.go): the source of the committed version, the
	// saturating wake-up a seal sends the compactor, the bytes its last full
	// cycle copied forward, and the per-step observer.
	committed   atomic.Pointer[func() core.Version]
	compactKick chan struct{}
	compactKept atomic.Int64
	compactObs  atomic.Pointer[func(CompactStep)]

	// drainObs, when set, observes the latency of every epoch drain (the
	// store's only stall-like primitive); the serving layer wires it to a
	// metrics histogram without kv importing the obs package.
	drainObs atomic.Pointer[func(time.Duration)]
	// persistObs, when set, observes every advance of the persisted version
	// the moment a checkpoint seals, with the pass's duration — the
	// event-driven commit plane's trigger and its pacing input. The libDPR
	// worker wires it to its persistence-report pump without kv importing
	// that package. Rollbacks regress the persisted version without firing it.
	persistObs atomic.Pointer[func(core.Version, time.Duration)]

	// stats
	checkpointCount atomic.Uint64
	rollbackCount   atomic.Uint64
}

// NewStore creates an empty store at version 1 over the given device. The
// store owns its blob name from here on: checkpoint records an earlier store
// left under it are deleted, because the new store's sequence numbers start
// over and recovery would otherwise prefer the stranger's higher ones.
func NewStore(device storage.Device, cfg Config) *Store {
	s := newStore(device, cfg)
	for slot := uint64(0); slot < 2; slot++ {
		_ = device.Delete(ckptSlotName(s.cfg.Blob, slot)) // absent on a new device
	}
	return s
}

// pendingWorkers sizes the background pool that completes PENDING operations
// (device reads).
const pendingWorkers = 4

// newStore is NewStore without touching the device: what recovery builds on.
func newStore(device storage.Device, cfg Config) *Store {
	if cfg.Blob == "" {
		cfg.Blob = "hlog"
	}
	s := &Store{
		cfg:       cfg,
		device:    device,
		log:       newHlog(device, cfg.Blob),
		index:     newIndex(cfg.BucketCount, cfg.IndexShards),
		epochs:    epoch.NewTable(),
		pendingCh: make(chan func(), 1024),
		taskSlots: make(chan *epoch.Slot, 2*pendingWorkers),
		closed:    make(chan struct{}),

		compactKick: make(chan struct{}, 1),
	}
	empty := []versionRange{}
	s.rolledBack.Store(&empty)
	s.st.Store(uint64(makeState(PhaseRest, 1)))
	s.wg.Add(1)
	go s.compactLoop()
	for i := 0; i < pendingWorkers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case task := <-s.pendingCh:
					task()
				case <-s.closed:
					// Drain remaining tasks so sessions are not stranded.
					for {
						select {
						case task := <-s.pendingCh:
							task()
						default:
							return
						}
					}
				}
			}
		}()
	}
	return s
}

// Close stops background workers. In-flight pending operations complete.
func (s *Store) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.wg.Wait()
}

func (s *Store) loadState() state { return state(s.st.Load()) }

// CurrentVersion returns the version new operations execute in.
func (s *Store) CurrentVersion() core.Version { return s.loadState().version() }

// CurrentPhase returns the state machine phase (diagnostics).
func (s *Store) CurrentPhase() Phase { return s.loadState().phase() }

// PersistedVersion implements core.StateObject.
func (s *Store) PersistedVersion() core.Version { return core.Version(s.persisted.Load()) }

// TailAddress returns the log tail (diagnostics and tests).
func (s *Store) TailAddress() int64 { return s.log.tail.Load() }

// HeadAddress returns the in-memory head boundary.
func (s *Store) HeadAddress() int64 { return s.log.head.Load() }

// Checkpoints returns the number of completed checkpoints.
func (s *Store) Checkpoints() uint64 { return s.checkpointCount.Load() }

// Rollbacks returns the number of completed rollbacks.
func (s *Store) Rollbacks() uint64 { return s.rollbackCount.Load() }

// RolledBackRanges returns the visibility filter (for checkpoint metadata).
func (s *Store) RolledBackRanges() []versionRange {
	return append([]versionRange(nil), (*s.rolledBack.Load())...)
}

// waitDrain bumps the epoch era and waits until every operation that entered
// before the bump has exited — the fuzzy boundary primitive of CPR.
func (s *Store) waitDrain() {
	start := time.Now()
	s.epochs.Drain()
	if f := s.drainObs.Load(); f != nil {
		(*f)(time.Since(start))
	}
}

// Epochs returns the table the store's operations are protected by: a
// session's slot (Session.Slot) is registered there.
func (s *Store) Epochs() *epoch.Table { return s.epochs }

// DrainYields returns how many epoch drains outlasted their spin and yielded
// the processor (epoch.Table.Yields).
func (s *Store) DrainYields() uint64 { return s.epochs.Yields() }

// OnDrain installs an observer called with the duration of every epoch drain
// (checkpoint boundaries, rollback fences, eviction, compaction). Pass nil to
// remove. Used by the serving layer to export drain latency on /metrics.
func (s *Store) OnDrain(fn func(time.Duration)) {
	if fn == nil {
		s.drainObs.Store(nil)
		return
	}
	s.drainObs.Store(&fn)
}

// OnPersist installs the observer (libdpr.StateObject's) called with the new
// persisted version and the pass's duration each time a checkpoint seals. Pass
// nil to remove. The callback runs on the checkpoint goroutine with the
// state-machine mutex held, so it must not block and must not call back into
// the store; typical use is a non-blocking send that wakes a report pump.
func (s *Store) OnPersist(fn func(core.Version, time.Duration)) {
	if fn == nil {
		s.persistObs.Store(nil)
		return
	}
	s.persistObs.Store(&fn)
}

func (s *Store) notifyPersist(v core.Version, took time.Duration) {
	if f := s.persistObs.Load(); f != nil {
		(*f)(v, took)
	}
}

// BeginCommit implements core.StateObject: it starts a non-blocking
// checkpoint capturing all operations in versions <= v and returns
// immediately; PersistedVersion advances asynchronously when the flush
// completes. Operations continue executing (in version >= v+1) throughout.
//
// Commits are group-committed: concurrent requests fold into
// maxRequestedCkpt and at most one checkpoint state machine runs at a time
// (single flight), so N overlapping BeginCommit calls cost one batched
// write+sync covering all of them — the requester of version v learns v is
// durable when the coalesced checkpoint's PersistedVersion (>= v) lands.
func (s *Store) BeginCommit(v core.Version) error {
	select {
	case <-s.closed:
		return errors.New("kv: store closed")
	default:
	}
	// Deduplicate: remember the largest requested target.
	for cur := s.maxRequestedCkpt.Load(); uint64(v) > cur && !s.maxRequestedCkpt.CompareAndSwap(cur, uint64(v)); cur = s.maxRequestedCkpt.Load() {
	}
	if core.Version(s.maxRequestedCkpt.Load()) > s.PersistedVersion() && s.ckptRunning.CompareAndSwap(false, true) {
		s.fly()
	}
	return nil
}

// BeginCommitIdle implements libdpr.StateObject.
func (s *Store) BeginCommitIdle(v, persisted core.Version) (bool, error) {
	if !s.ckptRunning.CompareAndSwap(false, true) {
		return false, nil
	}
	if s.PersistedVersion() != persisted {
		// A seal landed since the caller looked: hand the flag back, and run
		// what a BeginCommit that found it taken asked for meanwhile.
		s.ckptRunning.Store(false)
		return false, s.BeginCommit(0)
	}
	if err := s.BeginCommit(v); err != nil {
		return false, err // closed: no checkpoint runs again
	}
	s.fly()
	return true, nil
}

// fly runs checkpoint passes on a goroutine of its own, under the caller's
// ckptRunning, until every requested version is durable, or until this exact
// request failed (storage error) with nothing newer asked for: it stops rather
// than hot-loop, and the next BeginCommit retries.
func (s *Store) fly() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			before := s.PersistedVersion()
			tried := s.runCheckpoint()
			s.ckptRunning.Store(false)
			req, now := core.Version(s.maxRequestedCkpt.Load()), s.PersistedVersion()
			if req <= now || now == before && req <= tried || !s.ckptRunning.CompareAndSwap(false, true) {
				return
			}
		}
	}()
}

// runCheckpoint executes one pass of the CPR checkpoint state machine, timed
// from its call, returning the version it attempted to persist (0 if nothing
// to do).
func (s *Store) runCheckpoint() core.Version {
	start := time.Now()
	s.smWaiting.Add(1) // a compaction step holding the mutex gives way
	s.smMu.Lock()
	s.smWaiting.Add(-1)
	defer s.smMu.Unlock()
	s.purgeWG.Wait() // at most one state machine at a time (§5.5)

	requested := core.Version(s.maxRequestedCkpt.Load())
	if core.Version(s.persisted.Load()) >= requested {
		return requested // every requested version is already durable
	}
	target := requested
	if cur := s.loadState().version(); target < cur {
		target = cur
	}
	// IN_PROGRESS: operations shift to version target+1. Records written in
	// versions <= target are frozen for in-place updates once their writers
	// drain.
	s.st.Store(uint64(makeState(PhaseInProgress, target+1)))
	s.waitDrain()

	if err := s.sealFoldOver(target); err != nil {
		// Storage failure: abandon this checkpoint; operations continue in
		// target+1 and a later checkpoint retries with a wider range.
		s.st.Store(uint64(makeState(PhaseRest, target+1)))
		return target
	}
	s.persisted.Store(uint64(target))
	s.checkpointCount.Add(1)
	s.st.Store(uint64(makeState(PhaseRest, target+1)))
	s.notifyPersist(target, time.Since(start))
	s.maybeEvict()
	// The read-only boundary moved: there is more to compact.
	select {
	case s.compactKick <- struct{}{}:
	default:
	}
	return target
}

// sealFoldOver freezes the log prefix holding every record of the checkpoint
// and seals the part of it not yet on the device. All version<=target
// operations have drained, so the prefix up to the current tail is complete.
func (s *Store) sealFoldOver(target core.Version) error {
	boundary := s.log.tail.Load()
	s.log.readOnly.Store(boundary)
	// Drain again so no in-flight operation still performs in-place updates
	// below the new read-only boundary (it may have read the old boundary).
	s.waitDrain()
	// Every writer that could touch bytes below boundary has now exited, and
	// the drain ordered their writes before this store: publish the lock-free
	// read boundary (see hlog.frozen).
	s.log.frozen.Store(boundary)

	s.st.Store(uint64(makeState(PhaseWaitFlush, target+1)))
	from, chunks, err := s.log.copyOut(boundary)
	if err != nil {
		return err
	}
	if err := s.seal(checkpointMeta{Version: target, From: from, Boundary: boundary}, chunks); err != nil {
		return err
	}
	s.log.advanceFlushed(boundary)
	return nil
}

// Restore implements core.StateObject: the non-blocking rollback of §5.5.
// All operations executed in versions (v, current] are discarded; operations
// keep executing throughout in a fresh version. Restore returns once the
// rollback is logically complete (THROW done; PURGE marking continues in the
// background).
func (s *Store) Restore(v core.Version) error {
	s.smWaiting.Add(1) // a compaction step holding the mutex gives way
	s.smMu.Lock()
	s.smWaiting.Add(-1)
	defer s.smMu.Unlock()
	s.purgeWG.Wait() // serialize with a previous rollback's PURGE pass

	cur := s.loadState().version()
	if v >= cur {
		// Nothing executed after v; still advance the version so the new
		// world-line starts fresh.
		s.st.Store(uint64(makeState(PhaseRest, cur+1)))
		return nil
	}
	// THROW: publish the rolled-back range first so every operation that
	// enters after the drain filters it, then shift to version cur+1.
	newRanges := append(s.RolledBackRanges(), versionRange{Lo: v, Hi: cur})
	s.rolledBack.Store(&newRanges)
	s.st.Store(uint64(makeState(PhaseThrow, cur+1)))
	s.waitDrain()
	// After the drain: no operation is executing in a version <= cur and no
	// reader holds the old visibility filter — the fuzzy cut-off of Figure 8
	// is now sharp.

	// PURGE: mark invalidated records in the background; visibility is
	// already enforced by the range filter, so marking is a reclamation aid,
	// not a correctness requirement.
	s.st.Store(uint64(makeState(PhasePurge, cur+1)))
	s.wg.Add(1)
	s.purgeWG.Add(1)
	go func(lo, hi core.Version) {
		defer s.wg.Done()
		defer s.purgeWG.Done()
		s.purge(lo, hi)
		// PURGE finished: back to REST unless another machine took over.
		st := s.loadState()
		if st.phase() == PhasePurge {
			s.st.CompareAndSwap(uint64(st), uint64(makeState(PhaseRest, st.version())))
		}
	}(v, cur)

	if p := core.Version(s.persisted.Load()); p > v {
		s.persisted.Store(uint64(v))
	}
	s.rollbackCount.Add(1)
	return nil
}

// purge walks every chain and sets the invalid bit on records whose version
// lies in (lo, hi]. Runs under bucket locks, a bucket at a time, and in
// parallel across index shards (each goroutine confines itself to one shard's
// buckets; the invalid-bit writes are atomic meta stores).
func (s *Store) purge(lo, hi core.Version) {
	head := s.log.head.Load()
	s.index.forEachShard(func(si int) {
		sh := &s.index.shards[si]
		for b := range sh.buckets {
			mu := s.index.lock(s.index.handle(si, b))
			mu.Lock()
			chains := sh.buckets[b].chains()
			for i := range chains {
				for addr := chains[i].head(); addr != nilAddress && addr >= head; {
					r, ok := s.log.view(addr)
					if !ok {
						break
					}
					ver := core.Version(r.version())
					if ver > lo && ver <= hi && !r.invalid() {
						r.setMeta(r.meta() | metaInvalid)
					}
					addr = r.prev()
				}
			}
			mu.Unlock()
		}
	})
}

// maybeEvict advances the head past flushed regions when the in-memory log
// exceeds the budget, then releases slab memory after an epoch drain.
func (s *Store) maybeEvict() {
	if s.cfg.MemoryBudget <= 0 {
		return
	}
	tail := s.log.tail.Load()
	head := s.log.head.Load()
	if tail-head <= s.cfg.MemoryBudget {
		return
	}
	if !s.evicting.CompareAndSwap(false, true) {
		return
	}
	defer s.evicting.Store(false)
	target := tail - s.cfg.MemoryBudget
	old := s.log.advanceHead(target)
	newHead := s.log.head.Load()
	if newHead == old {
		return
	}
	s.waitDrain()
	s.log.releaseSlabs(old, newHead)
}

var _ core.StateObject = (*Store)(nil)
