package chaos

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/metadata"
	"dpr/internal/wire"
	"dpr/internal/workload"
)

// sessionRunner drives one client session with seeded YCSB-style traffic
// while its checker shadows every operation. Keys are namespaced per session
// ("s<sid>-<key>") so each checker only ever meets its own values; sessions
// still share workers, partitions, and faults.
type sessionRunner struct {
	sid    int
	chk    *sessionChecker
	client *dfaster.Client
	gen    *workload.Generator
	store  *metadata.Store
	// lastWL is the last world-line this runner acknowledged; the cuts of
	// the rounds in (lastWL, next ack] compose into the survival constraint
	// the checker classifies erasures against.
	lastWL core.WorldLine

	// pending carries the op being enqueued to the OnSend hook. Enqueue and
	// the hook run on the runner goroutine with BatchSize=1, so sequence
	// assignment is race-free by construction.
	pending *opRec

	stop chan struct{}
	done chan struct{}
}

func newSessionRunner(sid int, h *Harness, seed int64) (*sessionRunner, error) {
	r := &sessionRunner{
		sid:   sid,
		chk:   newSessionChecker(sid),
		store: h.Store(),
		gen: workload.NewGenerator(workload.Config{
			Keys:         64,
			ReadFraction: 0.5,
			Dist:         workload.Zipfian,
			Seed:         seed + int64(sid)*7919,
		}),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	client, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions: h.cfg.Partitions,
		BatchSize:  1, // one seq per send: the OnSend hook maps ops to seqs
		Window:     32,
		Relaxed:    true,
		OnSend: func(seqStart uint64, n int) {
			if r.pending != nil && n == 1 {
				r.chk.assignSeq(r.pending, seqStart)
			}
		},
	}, h.Service())
	if err != nil {
		return nil, err
	}
	r.client = client
	return r, nil
}

func (r *sessionRunner) start() {
	go func() {
		defer close(r.done)
		for i := 0; ; i++ {
			select {
			case <-r.stop:
				return
			default:
			}
			r.issue(r.gen.Next())
			if i%64 == 63 {
				r.pollCommit()
			}
		}
	}()
}

func (r *sessionRunner) halt() {
	close(r.stop)
	<-r.done
}

func (r *sessionRunner) keyFor(k [8]byte) string {
	return fmt.Sprintf("s%d-%x", r.sid, k)
}

func (r *sessionRunner) issue(op workload.Op) {
	key := r.keyFor(op.Key)
	var err error
	if op.Kind == workload.OpRead {
		rec := r.chk.beginRead(key)
		r.pending = rec
		err = r.client.Read([]byte(key), func(res wire.OpResult) {
			if res.Status == wire.StatusOK || res.Status == wire.StatusNotFound {
				// Value aliases the receive buffer; string() copies it.
				r.chk.completeRead(rec, res.Status == wire.StatusNotFound, string(res.Value))
			}
		})
	} else {
		// Updates and RMWs both become upserts: the checker needs every
		// write to carry a session-unique value.
		rec := r.chk.beginWrite(key)
		r.pending = rec
		err = r.client.Upsert([]byte(key), []byte(rec.wr.value), func(res wire.OpResult) {
			r.chk.completeWrite(rec, res.Status == wire.StatusOK, res.Version)
		})
	}
	r.pending = nil
	if err != nil {
		r.handleErr(err)
	}
}

// pollCommit folds the latest commit observations into the checker.
func (r *sessionRunner) pollCommit() {
	if _, err := r.client.Session().RefreshCommit(); err != nil {
		r.handleErr(err)
		return
	}
	prefix, exceptions := r.client.Committed()
	r.chk.markCommitted(prefix, exceptions)
}

// handleErr digests an operation or commit error. SurvivalErrors are the
// protocol speaking — acknowledge, teach the checker about the rollback, and
// continue on the new world-line. Anything else (dead connections, rejected
// batches, slow metadata) is transient chaos noise; back off briefly.
func (r *sessionRunner) handleErr(err error) {
	var surv *core.SurvivalError
	if errors.As(err, &surv) {
		if ack := r.client.Acknowledge(); ack != nil {
			r.chk.onFailure(ack, r.composedCutMax(ack.WorldLine))
		}
		return
	}
	time.Sleep(500 * time.Microsecond)
}

// composedCutMax folds the recovered cuts of the rounds in (lastWL, wl] into
// their per-worker minimum and returns the maximum position of the result —
// the threshold above which a version is provably outside the composed cut.
// If a cut is unavailable (it never is in practice — the SurvivalError was
// derived from it), the threshold degrades to "classify nothing as erased".
func (r *sessionRunner) composedCutMax(wl core.WorldLine) core.Version {
	var cut core.Cut
	for w := r.lastWL + 1; w <= wl; w++ {
		c, err := r.store.RecoveredCut(w)
		if err != nil {
			return ^core.Version(0)
		}
		if cut == nil {
			cut = c.Clone()
		} else {
			cut.Lower(c)
		}
	}
	r.lastWL = wl
	return cut.Max()
}

// settle drives the session to a fully committed state: every sequence
// number issued so far either committed or resolved as a rollback exception.
// With faults cleared this converges: survival errors on the way are acknowledged
// as during the run, the client's one report of abandoned operations passed over.
func (r *sessionRunner) settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := r.client.WaitCommitAll(250 * time.Millisecond)
		if err == nil {
			r.pollCommit()
			return nil
		}
		r.handleErr(err)
		// The commit wait can also stall because the session has not yet
		// heard about a recovery round; RefreshCommit surfaces it.
		if _, rerr := r.client.Session().RefreshCommit(); rerr != nil {
			r.handleErr(rerr)
		}
		if time.Now().After(deadline) {
			abandoned, recent := r.client.Abandoned()
			return fmt.Errorf("chaos: session %d never settled: %w (in flight %d, abandoned %d, last %q)",
				r.sid, err, r.client.Session().Tracker().InFlight(), abandoned, recent)
		}
	}
}

// readback issues one validated read per key this session ever wrote —
// post-recovery reads over a quiesced, fault-free cluster, checking the
// surviving prefix end to end (§4.3 invariant 4).
func (r *sessionRunner) readback() error {
	r.chk.mu.Lock()
	keys := make([]string, 0, len(r.chk.keys))
	for k := range r.chk.keys {
		keys = append(keys, k)
	}
	r.chk.mu.Unlock()
	sort.Strings(keys)
	for _, key := range keys {
		rec := r.chk.beginRead(key)
		r.pending = rec
		err := r.client.Read([]byte(key), func(res wire.OpResult) {
			if res.Status == wire.StatusOK || res.Status == wire.StatusNotFound {
				r.chk.completeRead(rec, res.Status == wire.StatusNotFound, string(res.Value))
			}
		})
		r.pending = nil
		if err != nil {
			r.handleErr(err)
		}
	}
	if err := r.client.Drain(); err != nil {
		r.handleErr(err)
	}
	r.pollCommit()
	return nil
}

func (r *sessionRunner) close() {
	r.client.Close()
}

// violations returns everything the checker flagged.
func (r *sessionRunner) violations() []string {
	return r.chk.Violations()
}
