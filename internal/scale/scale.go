// Package scale is the in-process (no-TCP) metadata-plane stress harness:
// it drives very large populations of concurrent DPR sessions — 100k to 1M —
// with sparse, bursty, Zipf-skewed activity and open/close churn, directly
// against the session tracker, the cut finders, and the metadata store.
//
// The harness exists to measure (and pin, in EXPERIMENTS.md) the two numbers
// that decide whether the metadata plane survives production scale:
//
//   - memory per idle session: the dormant majority must cost O(few words)
//     each, held dehydrated in a flat core.SessionArchive slice rather than
//     as live tracker objects (see mem.go);
//   - cut latency at N: one commit cycle — workers checkpoint and report,
//     the finder advances, the cut publishes, and the round's active
//     sessions fold it into their committed prefixes — must cost O(active),
//     not O(N), so the latency at N=1M stays within a small factor of 10k.
//
// Sessions spend their dormant life as ~64-byte archives; an activation
// rehydrates the session (libdpr.ResumeSession), issues a few operations,
// folds the newest cut, and evicts back to the archive. Session ids map to
// workers round-robin; each worker bumps one version per round and reports
// it with a cross-worker dependency edge (exercising the exact finder's
// closure path and incremental graph pruning).
package scale

import (
	"fmt"
	"time"

	"dpr/internal/core"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/workload"
)

// Config parameterizes a harness run.
type Config struct {
	// Sessions is the initial session population N.
	Sessions int
	// Workers is the number of (simulated) shard workers.
	Workers int
	// Finder selects the cut algorithm under test.
	Finder metadata.FinderKind
	// Rounds is how many commit cycles Run drives.
	Rounds int
	// ActivePerRound is how many sessions act each round — deliberately
	// independent of Sessions, so round cost scaling with N exposes any
	// O(total) work on the cut path.
	ActivePerRound int
	// OpsPerActive is operations per activation.
	OpsPerActive int
	// ChurnPerRound sessions close (and as many open) per round.
	ChurnPerRound int
	// Relaxed selects relaxed DPR sessions.
	Relaxed bool
	// Seed makes the run deterministic.
	Seed int64
}

func (c *Config) defaults() {
	if c.Sessions <= 0 {
		c.Sessions = 10_000
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Rounds <= 0 {
		c.Rounds = 10
	}
	if c.ActivePerRound <= 0 {
		c.ActivePerRound = 256
	}
	if c.OpsPerActive <= 0 {
		c.OpsPerActive = 2
	}
}

// Harness holds the session population and the metadata plane under test.
type Harness struct {
	cfg   Config
	store *metadata.Store
	act   *workload.Activity

	// archived holds every dormant session in compact form, indexed by
	// session id. The flat slice is the point: a million idle sessions are
	// one allocation of ~64-byte records, not a million heap objects.
	archived []core.SessionArchive
	closed   []bool

	versions []core.Version // per-worker version, bumped once per round

	// Per-round scratch, reused so steady-state rounds allocate only the
	// rehydrated sessions themselves.
	live  []*libdpr.Session
	ids   []uint64
	vbuf  [1]core.Version
	depsB [1]core.Token

	ops          uint64
	cutLatencies []time.Duration
}

// NewHarness builds the population: a metadata store with its own metrics
// registry, cfg.Workers registered workers, and cfg.Sessions dormant
// sessions (archives of freshly opened sessions — no tracker objects exist
// until first activation).
func NewHarness(cfg Config) (*Harness, error) {
	cfg.defaults()
	store := metadata.NewStore(metadata.Config{Finder: cfg.Finder, Obs: obs.NewRegistry()})
	for w := 0; w < cfg.Workers; w++ {
		if err := store.RegisterWorker(core.WorkerID(w), fmt.Sprintf("shard-%d", w)); err != nil {
			return nil, err
		}
	}
	h := &Harness{
		cfg:   cfg,
		store: store,
		act: workload.NewActivity(workload.ActivityConfig{
			Sessions:       cfg.Sessions,
			ActivePerRound: cfg.ActivePerRound,
			ChurnPerRound:  cfg.ChurnPerRound,
			Seed:           cfg.Seed,
		}),
		archived: make([]core.SessionArchive, cfg.Sessions),
		closed:   make([]bool, cfg.Sessions),
		versions: make([]core.Version, cfg.Workers),
	}
	fresh := core.SessionArchive{NextSeq: 1, Relaxed: cfg.Relaxed}
	for i := range h.archived {
		h.archived[i] = fresh
	}
	for w := range h.versions {
		h.versions[w] = 1
	}
	return h, nil
}

// Step drives one commit cycle: activate this round's sessions (rehydrate,
// issue operations against their shard's current version), checkpoint every
// worker (report persisted versions to the finder), publish the cut, fold it
// into the active sessions, and evict them back to the archive. The time
// from first checkpoint report to last fold is recorded as the round's cut
// latency.
func (h *Harness) Step() error {
	plan := h.act.Round()
	for range plan.Open {
		h.archived = append(h.archived, core.SessionArchive{NextSeq: 1, Relaxed: h.cfg.Relaxed})
		h.closed = append(h.closed, false)
	}

	// Activation burst: rehydrate and issue. Operations execute at the
	// shard's current (uncommitted) version.
	h.live = h.live[:0]
	h.ids = h.ids[:0]
	for _, id := range plan.Active {
		if h.closed[id] {
			return fmt.Errorf("scale: closed session %d scheduled", id)
		}
		s := libdpr.ResumeSession(h.store, libdpr.SessionState{ID: id, Archive: h.archived[id]})
		h.live = append(h.live, s)
		h.ids = append(h.ids, id)
		w := core.WorkerID(id % uint64(h.cfg.Workers))
		v := h.versions[w]
		for k := 0; k < h.cfg.OpsPerActive; k++ {
			hd, err := s.NextBatch(1)
			if err != nil {
				return err
			}
			h.vbuf[0] = v
			if err := s.CompleteBatch(w, hd, libdpr.BatchReply{Versions: h.vbuf[:]}); err != nil {
				return err
			}
			h.ops++
		}
	}

	// Commit cycle under measurement: checkpoint reports -> finder advance
	// -> cut publication -> fold into the round's active frontier.
	t0 := time.Now()
	for w := 0; w < h.cfg.Workers; w++ {
		v := h.versions[w]
		var deps []core.Token
		if h.cfg.Finder != metadata.FinderApproximate && v > 1 {
			// One cross-shard edge per version keeps the exact finder's
			// closure path honest without blowing up the graph.
			h.depsB[0] = core.Token{Worker: core.WorkerID((w + 1) % h.cfg.Workers), Version: v - 1}
			deps = h.depsB[:]
		}
		if err := h.store.ReportVersion(core.WorkerID(w), v, deps); err != nil {
			return err
		}
		h.versions[w] = v + 1
	}
	cut, _, wl, _ := h.store.State()
	for i, s := range h.live {
		id := h.ids[i]
		prevFloor := h.archived[id].Committed
		s.Tracker().AdvanceCommitted(wl, cut)
		st, ok := s.Evict()
		if !ok {
			p, exc := s.Committed()
			return fmt.Errorf("scale: session %d not quiescent after fold (committed %d, %d exceptions)",
				id, p, len(exc))
		}
		if st.Archive.Committed < prevFloor {
			return fmt.Errorf("scale: session %d committed floor regressed %d -> %d",
				id, prevFloor, st.Archive.Committed)
		}
		if st.Archive.Committed != st.Archive.LatestSeq {
			return fmt.Errorf("scale: session %d evicted with uncommitted suffix (committed %d, latest %d)",
				id, st.Archive.Committed, st.Archive.LatestSeq)
		}
		h.archived[id] = st.Archive
	}
	h.cutLatencies = append(h.cutLatencies, time.Since(t0))

	for _, id := range plan.Close {
		h.closed[id] = true
		h.archived[id] = core.SessionArchive{}
	}
	return nil
}

// Result summarizes a run; see report.go.
func (h *Harness) Result() Result {
	return newResult(h.cfg, h.ops, h.cutLatencies)
}

// Run builds a harness and drives cfg.Rounds commit cycles.
func Run(cfg Config) (Result, error) {
	h, err := NewHarness(cfg)
	if err != nil {
		return Result{}, err
	}
	for r := 0; r < h.cfg.Rounds; r++ {
		if err := h.Step(); err != nil {
			return Result{}, fmt.Errorf("round %d: %w", r, err)
		}
	}
	return h.Result(), nil
}
