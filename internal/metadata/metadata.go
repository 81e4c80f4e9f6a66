// Package metadata implements the fault-tolerant metadata services of paper
// §5.3: the DPR table consumed by the cut-finding algorithms (§3.3-3.4),
// cluster membership, key-ownership mapping over virtual partitions, and the
// world-line registry used during failure recovery. The paper backs these
// with an Azure SQL database; this package provides the same ACID-table
// semantics in-process, with configurable access latency (simulating the
// database round trip) and durable persistence through a storage.Device.
//
// All finder traffic is off the critical path of request processing: workers
// report checkpoints and poll the cut from background threads, exactly as in
// the paper.
//
// One mutex guards the tables — finder, world-lines, acks, membership and
// ownership — so a snapshot is one consistent state; State() readers consume
// an immutable published view without taking it.
package metadata

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/core"
	"dpr/internal/obs"
	"dpr/internal/storage"
)

// Service is the interface workers and clients use to talk to the metadata
// store; it is implemented in-process by *Store and over the network by
// *RPCClient.
type Service interface {
	// RegisterWorker adds a worker to the cluster (a row in the DPR table). A
	// restarted worker registers its id again, at its new address.
	RegisterWorker(w core.WorkerID, addr string) error
	// ReportVersion records that worker w persisted version v with deps. It
	// refuses the report while w has not acked the current world-line: what a
	// worker persists before it rolls back is erased by that rollback, and
	// must not enter the cut the recovery round resumes.
	ReportVersion(w core.WorkerID, v core.Version, deps []core.Token) error
	// State returns the current DPR cut, Vmax (for checkpoint fast-forward),
	// and the current world-line. The cut is shared with every other caller
	// and is read-only: whoever wants to change it clones it first.
	State() (core.Cut, core.Version, core.WorldLine, error)
	// Members lists registered workers and their addresses.
	Members() (map[core.WorkerID]string, error)
	// OwnerOf resolves a virtual partition to its owning worker.
	OwnerOf(partition uint64) (core.WorkerID, error)
	// SetOwner assigns a virtual partition to a worker.
	SetOwner(partition uint64, w core.WorkerID) error
	// RecoveredCut returns the cut the system rolled back to when the given
	// world-line was spawned (clients use it to compute survival).
	RecoveredCut(wl core.WorldLine) (core.Cut, error)
	// AckWorldLine records that worker w has completed its rollback into
	// world-line wl, or started on it; the recovery round waits for every
	// live member's ack before resuming DPR progress (§4.1).
	AckWorldLine(w core.WorkerID, wl core.WorldLine) error
	// AnnounceCommit says that worker w, on world-line wl, has closed version
	// v — started its seal — so that busy peers close v with it instead of
	// each on its own clock (a commit round). It is one-way and advisory:
	// nothing is returned, an announcement from another world-line or below
	// the known Vmax is dropped, and a lost one costs the peers one seal of
	// latency (they see v in Vmax once w has persisted it).
	AnnounceCommit(w core.WorkerID, wl core.WorldLine, v core.Version)
	// StateWatcher is how workers learn that State changed: every service
	// can wake its caller, so nothing falls back to polling State.
	StateWatcher
}

// ElasticService is Service under the name the benchmark module's metadata
// decorator still embeds; membership changes only through RegisterWorker. The
// alias goes when the benchmark drives the cluster through what the product
// exports (ROADMAP item 4).
type ElasticService = Service

// FinderKind selects the cut-finding algorithm (§3.3-3.4).
type FinderKind uint8

const (
	// FinderExact stores the full precedence graph (precise, heavier).
	FinderExact FinderKind = iota
	// FinderApproximate stores only persisted version numbers; the cut is
	// min(persistedVersion) — the configuration the paper's evaluation uses.
	FinderApproximate
	// FinderHybrid runs exact in memory with approximate fallback.
	FinderHybrid
)

func (k FinderKind) String() string {
	switch k {
	case FinderExact:
		return "exact"
	case FinderApproximate:
		return "approximate"
	case FinderHybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// NewFinder constructs the finder for a kind.
func NewFinder(k FinderKind) core.Finder {
	switch k {
	case FinderExact:
		return core.NewExactFinder()
	case FinderHybrid:
		return core.NewHybridFinder()
	default:
		return core.NewApproximateFinder()
	}
}

// Config parameterizes a Store.
type Config struct {
	// Finder selects the DPR cut algorithm.
	Finder FinderKind
	// AccessLatency is injected into every call, simulating the round trip
	// to a remote metadata database. 0 disables injection.
	AccessLatency time.Duration
	// Device, if set, receives durable snapshots of the metadata tables, in
	// the blob snapshotBlob.
	Device storage.Device
	// Obs selects the metrics registry (nil: obs.Default).
	Obs *obs.Registry
}

// snapshotBlob names the metadata snapshot on the device.
const snapshotBlob = "dpr-metadata"

// stateView is an immutable snapshot of the cut-bearing state. It is built
// under stateMu and published whole through an atomic pointer, so State()
// readers see a consistent (world-line, cut, Vmax, frozen) quadruple without
// contending with reporters. gen records which mutation generation the view
// reflects; readers rebuild lazily when it falls behind.
type stateView struct {
	gen     uint64
	wl      core.WorldLine
	cut     core.Cut     // effective cut (the frozen cut while frozen); never mutated after publish
	vmax    core.Version // highest version any worker has closed or persisted
	closing core.Version // highest announced version (0: none on this world-line)
	frozen  bool
}

// Store is the in-process metadata service.
type Store struct {
	cfg    Config
	finder core.Finder

	// stateMu guards the finder and the tables from worldLine to owners. It
	// is never held across device I/O.
	stateMu   sync.Mutex
	worldLine core.WorldLine
	// frozen pins the cut during failure recovery (§4.1: the cluster
	// manager temporarily halts DPR progress).
	frozen    bool
	frozenCut core.Cut
	// recovered maps a world-line to the cut it was spawned from.
	recovered map[core.WorldLine]core.Cut
	// acked maps each worker to the newest world-line it confirmed.
	acked map[core.WorkerID]core.WorldLine
	// closing is the highest version a worker has announced closing on the
	// current world-line (AnnounceCommit); Vmax is the larger of it and the
	// finder's persisted maximum. It may name a version nobody has persisted
	// yet. It belongs to a world-line: BeginRecovery clears it, and it is
	// never written into the snapshot.
	closing core.Version
	// members maps each registered worker to its address; owners maps each
	// virtual partition to its worker.
	members map[core.WorkerID]string
	owners  map[uint64]core.WorkerID

	// gen counts cut-affecting mutations (bumped under stateMu); state is
	// the latest published view. Readers that observe view.gen == gen are
	// current and take no lock.
	gen   atomic.Uint64
	state atomic.Pointer[stateView]
	// watch is closed and replaced under stateMu whenever gen advances,
	// waking WaitStateChange long-polls.
	watch chan struct{}
	// legs is the free list of the long-poll legs' runtime timers (a leg lasts
	// up to a quarter second: not hrtimer's business), stopped and drained. A
	// channel, not a sync.Pool, which empties at every collection; 64 slots,
	// more than the workers polling one store here.
	legs chan *time.Timer

	// Snapshot persistence is serialized by a single flusher so snapshots
	// land on the device in order; persist only marks dirty.
	flushMu  sync.Mutex
	dirty    bool
	flushing bool
	flushWG  sync.WaitGroup

	trace       *obs.Trace
	recoveriesC *obs.Counter
	reportsC    *obs.Counter
	snapErrorsC *obs.Counter
}

// NewStore builds a metadata store.
func NewStore(cfg Config) *Store {
	s := &Store{
		cfg:       cfg,
		finder:    NewFinder(cfg.Finder),
		recovered: make(map[core.WorldLine]core.Cut),
		acked:     make(map[core.WorkerID]core.WorldLine),
		members:   make(map[core.WorkerID]string),
		owners:    make(map[uint64]core.WorkerID),
		watch:     make(chan struct{}),
		legs:      make(chan *time.Timer, 64),
	}
	s.registerObs()
	return s
}

// registerObs registers the finder's instruments; gauges are callback-backed
// and cost nothing until scraped.
func (s *Store) registerObs() {
	reg := s.cfg.Obs
	if reg == nil {
		reg = obs.Default
	}
	s.trace = obs.NewTrace(obs.DefaultTraceSize)
	reg.GaugeFunc("dpr_finder_world_line",
		"Current world-line assigned by the finder.",
		func() float64 { return float64(s.WorldLine()) })
	reg.GaugeFunc("dpr_finder_vmax",
		"Largest version any worker has closed or persisted.",
		func() float64 { return float64(s.view().vmax) })
	reg.GaugeFunc("dpr_finder_closing_version",
		"Largest version announced as closing on this world-line (0: none).",
		func() float64 { return float64(s.view().closing) })
	reg.GaugeFunc("dpr_finder_frozen",
		"1 while DPR progress is frozen for recovery, else 0.",
		func() float64 {
			if s.Frozen() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dpr_finder_workers",
		"Registered cluster members.",
		func() float64 {
			s.stateMu.Lock()
			defer s.stateMu.Unlock()
			return float64(len(s.members))
		})
	s.recoveriesC = reg.Counter("dpr_finder_recoveries_total",
		"Recovery rounds begun (world-line bumps).")
	s.reportsC = reg.Counter("dpr_finder_version_reports_total",
		"Persisted-version reports received from workers.")
	s.snapErrorsC = reg.Counter("dpr_finder_snapshot_write_errors_total",
		"Metadata snapshot writes the device failed.")
}

// DebugState assembles the finder's /debug/dpr snapshot.
func (s *Store) DebugState() obs.DPRState {
	v := s.view()
	s.stateMu.Lock()
	members := make(map[string]string, len(s.members))
	for w, a := range s.members {
		members[strconv.FormatUint(uint64(w), 10)] = a
	}
	owners := make(map[string]uint64, len(s.owners))
	for p, w := range s.owners {
		owners[strconv.FormatUint(p, 10)] = uint64(w)
	}
	s.stateMu.Unlock()
	var max core.Version
	cutJSON := make(map[string]uint64, len(v.cut))
	for w, ver := range v.cut {
		if ver > max {
			max = ver
		}
		cutJSON[strconv.FormatUint(uint64(w), 10)] = uint64(ver)
	}
	return obs.DPRState{
		Kind:      "finder",
		WorldLine: uint64(v.wl),
		CutMax:    uint64(max),
		Cut:       cutJSON,
		Vmax:      uint64(v.vmax),
		Closing:   uint64(v.closing),
		Frozen:    v.frozen,
		Members:   members,
		Owners:    owners,
		Rollbacks: s.recoveriesC.Value(),
		Trace:     s.trace.Snapshot(),
	}
}

func (s *Store) simulateLatency() {
	if s.cfg.AccessLatency > 0 {
		time.Sleep(s.cfg.AccessLatency)
	}
}

// bumpLocked advances the mutation generation and wakes every parked
// WaitStateChange long-poll. Caller holds stateMu, which makes the
// close-and-replace race-free: a waiter either sees the new generation on its
// fast path or parks on a channel this close wakes.
func (s *Store) bumpLocked() {
	s.gen.Add(1)
	close(s.watch)
	s.watch = make(chan struct{})
}

// Generation returns the current mutation generation, the token
// WaitStateChange long-polls against.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// WaitStateChange parks until the cut-bearing state has advanced past the
// since generation, or the timeout elapses (timeout <= 0 waits indefinitely).
// It returns the generation current at wake-up: equal to since means the
// timeout fired with no change — the caller's heartbeat case, not an error.
// This is the push half of the event-driven commit plane: workers long-poll
// it instead of sleeping between State calls.
func (s *Store) WaitStateChange(since uint64, timeout time.Duration) (uint64, error) {
	if g := s.gen.Load(); g != since {
		return g, nil
	}
	s.stateMu.Lock()
	if g := s.gen.Load(); g != since {
		s.stateMu.Unlock()
		return g, nil
	}
	ch := s.watch
	s.stateMu.Unlock()
	if timeout <= 0 {
		<-ch
		return s.gen.Load(), nil
	}
	var t *time.Timer
	select {
	case t = <-s.legs: // recycled: a leg allocates no timer
		t.Reset(timeout)
	default:
		t = time.NewTimer(timeout)
	}
	select {
	case <-ch:
		if !t.Stop() {
			<-t.C // it ran out as the state changed: the next leg must not find this
		}
	case <-t.C:
	}
	select {
	case s.legs <- t:
	default: // more legs in flight than the list holds
	}
	return s.gen.Load(), nil
}

// StateWatcher is the push half of a Service: WaitStateChange wakes a worker
// when the cut-bearing state changes, so its watch loop long-polls instead of
// polling State. It is part of Service; the name stays for decorators that
// forward it separately.
type StateWatcher interface {
	WaitStateChange(since uint64, timeout time.Duration) (uint64, error)
}

// view returns the current state view, rebuilding it first if mutations have
// landed since the last publish. The fast path (no change since last read)
// is two atomic loads and no lock.
func (s *Store) view() *stateView {
	if v := s.state.Load(); v != nil && v.gen == s.gen.Load() {
		return v
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.publishLocked()
}

// publishLocked rebuilds and publishes the state view; caller holds stateMu.
// The rebuild cost (one cut clone) is paid once per batch of mutations
// rather than once per report.
func (s *Store) publishLocked() *stateView {
	gen := s.gen.Load()
	if v := s.state.Load(); v != nil && v.gen == gen {
		return v
	}
	cut := s.finder.CurrentCut()
	if s.frozen {
		cut = s.frozenCut.Clone()
	}
	v := &stateView{gen: gen, wl: s.worldLine, cut: cut, vmax: max(s.finder.MaxVersion(), s.closing),
		closing: s.closing, frozen: s.frozen}
	s.state.Store(v)
	return v
}

// RegisterWorker implements Service.
func (s *Store) RegisterWorker(w core.WorkerID, addr string) error {
	s.simulateLatency()
	s.stateMu.Lock()
	s.members[w] = addr
	s.finder.AddWorker(w)
	s.bumpLocked()
	s.stateMu.Unlock()
	s.persist()
	return nil
}

// ReportVersion implements Service.
func (s *Store) ReportVersion(w core.WorkerID, v core.Version, deps []core.Token) error {
	s.simulateLatency()
	s.stateMu.Lock()
	if _, ok := s.members[w]; !ok {
		s.stateMu.Unlock()
		return fmt.Errorf("metadata: unknown worker %d", w)
	}
	if s.acked[w] < s.worldLine {
		wl := s.worldLine
		s.stateMu.Unlock()
		return fmt.Errorf("metadata: worker %d has not rolled back into world-line %d", w, wl)
	}
	s.finder.Report(w, v, deps)
	s.bumpLocked()
	s.stateMu.Unlock()
	s.persist()
	s.reportsC.Inc()
	return nil
}

// State implements Service. While recovery is in progress the cut is frozen
// at its pre-failure value. Readers consume the published view: concurrent
// State calls share one immutable snapshot, allocate nothing and do not
// serialize against reporters.
func (s *Store) State() (core.Cut, core.Version, core.WorldLine, error) {
	s.simulateLatency()
	v := s.view()
	return v.cut, v.vmax, v.wl, nil
}

// Members implements Service.
func (s *Store) Members() (map[core.WorkerID]string, error) {
	s.simulateLatency()
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return maps.Clone(s.members), nil
}

// OwnerOf implements Service.
func (s *Store) OwnerOf(partition uint64) (core.WorkerID, error) {
	s.simulateLatency()
	s.stateMu.Lock()
	w, ok := s.owners[partition]
	s.stateMu.Unlock()
	if !ok {
		return 0, fmt.Errorf("metadata: partition %d unowned", partition)
	}
	return w, nil
}

// SetOwner implements Service.
func (s *Store) SetOwner(partition uint64, w core.WorkerID) error {
	s.simulateLatency()
	s.stateMu.Lock()
	s.owners[partition] = w
	s.stateMu.Unlock()
	s.persist()
	return nil
}

// RecoveredCut implements Service.
func (s *Store) RecoveredCut(wl core.WorldLine) (core.Cut, error) {
	s.simulateLatency()
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	c, ok := s.recovered[wl]
	if !ok {
		return nil, fmt.Errorf("metadata: world-line %d unknown", wl)
	}
	return c.Clone(), nil
}

// AckWorldLine implements Service. An ack that raises the worker's world-line
// advances the generation, which is what a recovery round's AwaitAcks parks on.
func (s *Store) AckWorldLine(w core.WorkerID, wl core.WorldLine) error {
	s.simulateLatency()
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if wl > s.acked[w] {
		s.acked[w] = wl
		s.bumpLocked()
	}
	return nil
}

// AnnounceCommit implements Service. Only an announcement that raises Vmax
// bumps the generation: the second worker to close a version wakes nobody.
func (s *Store) AnnounceCommit(w core.WorkerID, wl core.WorldLine, v core.Version) {
	s.simulateLatency()
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if _, ok := s.members[w]; !ok || wl != s.worldLine || v <= s.closing || v <= s.finder.MaxVersion() {
		return
	}
	s.closing = v
	s.bumpLocked()
}

// AwaitAcks parks until every registered member outside down has confirmed
// its rollback into world-line wl, or a newer round has taken over (its own
// wait governs then), and reports false if timeout ran out first. It waits on
// the generation: acks, registrations and new rounds all advance it.
func (s *Store) AwaitAcks(wl core.WorldLine, down map[core.WorkerID]bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		since := s.gen.Load()
		if s.ackedAll(wl, down) {
			return true
		}
		left := time.Until(deadline)
		if left <= 0 {
			return false
		}
		s.WaitStateChange(since, left)
	}
}

func (s *Store) ackedAll(wl core.WorldLine, down map[core.WorkerID]bool) bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.worldLine != wl {
		return true
	}
	for w := range s.members {
		if !down[w] && s.acked[w] < wl {
			return false
		}
	}
	return true
}

// ---- recovery orchestration hooks (used by the cluster manager) ----

// BeginRecovery freezes DPR progress, assigns the next world-line, and
// returns (newWorldLine, cutToRestore). Idempotent while frozen: a nested
// failure during recovery advances the world-line again but keeps the same
// recovery cut (no operations committed in between).
func (s *Store) BeginRecovery() (core.WorldLine, core.Cut) {
	s.simulateLatency()
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if !s.frozen {
		s.frozen = true
		s.frozenCut = s.finder.CurrentCut()
		// Name every member, at 0 if it has committed nothing (a finder leaves
		// those out): a session that skips this round composes its cut with
		// later ones (core.Cut.Lower), which reads an absent worker as one that
		// did not exist then, and a later cut would re-cover what this round
		// erased on it.
		for w := range s.members {
			if _, ok := s.frozenCut[w]; !ok {
				s.frozenCut[w] = 0
			}
		}
	}
	s.worldLine++
	s.recovered[s.worldLine] = s.frozenCut.Clone()
	// Every announced version was on the previous world-line: a worker that
	// rolls back never closes it.
	s.closing = 0
	s.bumpLocked()
	s.publishLocked()
	s.persist()
	s.recoveriesC.Inc()
	s.trace.Record(obs.EvRecoveryBegin, uint64(s.worldLine), uint64(s.frozenCut.Max()), 0)
	return s.worldLine, s.frozenCut.Clone()
}

// CompleteRecoveryFor resumes DPR progress only if wl is still the current
// world-line. When a second failure arrives while a rollback round is in
// flight, BeginRecovery hands out a newer world-line; the older round's
// completion must then be a no-op — unfreezing would let the cut advance and
// commit operations on the new world-line while its rollbacks are still
// running, exactly the lost-committed-data window DPR freezes to prevent.
func (s *Store) CompleteRecoveryFor(wl core.WorldLine) {
	s.simulateLatency()
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if wl != s.worldLine {
		return
	}
	s.frozen = false
	s.bumpLocked()
	s.publishLocked()
	s.persist()
	s.trace.Record(obs.EvRecoveryEnd, uint64(wl), 0, 0)
}

// Frozen reports whether recovery is in progress.
func (s *Store) Frozen() bool { return s.view().frozen }

// WorldLine returns the current world-line.
func (s *Store) WorldLine() core.WorldLine { return s.view().wl }

// ---- durability ----

// persist schedules a durable snapshot of the tables (if a device is
// configured). Snapshots are serialized through one flusher goroutine so a
// newer snapshot can never be overwritten by an older in-flight write. The
// finder's internal state is rebuilt from worker re-reports on restart
// (approximate) — matching the paper, where only the version table rows are
// durable and the exact algorithm's graph may be in memory.
func (s *Store) persist() {
	if s.cfg.Device == nil {
		return
	}
	s.flushMu.Lock()
	s.dirty = true
	if s.flushing {
		s.flushMu.Unlock()
		return
	}
	s.flushing = true
	s.flushWG.Add(1)
	s.flushMu.Unlock()
	go s.flushLoop()
}

// flushLoop drains dirty snapshots until none remain.
func (s *Store) flushLoop() {
	defer s.flushWG.Done()
	for {
		s.flushMu.Lock()
		if !s.dirty {
			s.flushing = false
			s.flushMu.Unlock()
			return
		}
		s.dirty = false
		s.flushMu.Unlock()
		data := s.encodeSnapshot()
		ch := make(chan struct{})
		s.cfg.Device.WriteAsync(snapshotBlob, 0, data, func(err error) {
			if err != nil {
				s.snapErrorsC.Inc()
			}
			close(ch)
		})
		<-ch
	}
}

// Sync blocks until every scheduled snapshot has persisted (tests and
// orderly shutdown).
func (s *Store) Sync() { s.flushWG.Wait() }

// encodeSnapshot serializes the tables. They are copied in one critical
// section, so the snapshot is one state of the store: an owner or cut position
// set after its worker registered never lands beside a member table without
// that worker. The bytes are encoded after unlocking.
func (s *Store) encodeSnapshot() []byte {
	s.stateMu.Lock()
	wl := s.worldLine
	cut := s.finder.CurrentCut()
	members, owners := maps.Clone(s.members), maps.Clone(s.owners)
	s.stateMu.Unlock()
	var buf bytes.Buffer
	put := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		buf.Write(b[:])
	}
	put(uint64(wl))
	put(uint64(len(cut)))
	for w, v := range cut {
		put(uint64(w))
		put(uint64(v))
	}
	put(uint64(len(members)))
	for w, addr := range members {
		put(uint64(w))
		put(uint64(len(addr)))
		buf.WriteString(addr)
	}
	put(uint64(len(owners)))
	for p, w := range owners {
		put(p)
		put(uint64(w))
	}
	return buf.Bytes()
}

// LoadSnapshot reads back a persisted metadata snapshot (restart path).
// Returns the world-line, last durable cut, members, and ownership table.
func LoadSnapshot(dev storage.Device) (core.WorldLine, core.Cut, map[core.WorkerID]string, map[uint64]core.WorkerID, error) {
	size := dev.BlobSize(snapshotBlob)
	if size == 0 {
		return 0, nil, nil, nil, errors.New("metadata: no snapshot")
	}
	raw, err := dev.Read(snapshotBlob, 0, int(size))
	if err != nil {
		return 0, nil, nil, nil, err
	}
	// A short blob (a torn write) or a length word past its end fails the
	// load: short is sticky, and every read after it yields zero.
	off, short := 0, false
	get := func() uint64 {
		if short || len(raw)-off < 8 {
			short = true
			return 0
		}
		v := binary.LittleEndian.Uint64(raw[off:])
		off += 8
		return v
	}
	wl := core.WorldLine(get())
	cut := make(core.Cut)
	for n := get(); n > 0 && !short; n-- {
		w := core.WorkerID(get())
		cut[w] = core.Version(get())
	}
	members := make(map[core.WorkerID]string)
	for n := get(); n > 0 && !short; n-- {
		w := core.WorkerID(get())
		l := get()
		if l > uint64(len(raw)-off) {
			short = true
			break
		}
		members[w] = string(raw[off : off+int(l)])
		off += int(l)
	}
	ownership := make(map[uint64]core.WorkerID)
	for n := get(); n > 0 && !short; n-- {
		p := get()
		ownership[p] = core.WorkerID(get())
	}
	if short {
		return 0, nil, nil, nil, fmt.Errorf("metadata: snapshot %q truncated at byte %d of %d", snapshotBlob, off, len(raw))
	}
	return wl, cut, members, ownership, nil
}

var _ Service = (*Store)(nil)
