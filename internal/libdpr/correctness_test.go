package libdpr_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
)

// TestDPRCorrectnessUnderRandomFailures checks the three correctness
// properties of §4.3 on randomized traces with injected failures:
//
//  1. Prefix recoverability — committed operations are never lost: after a
//     failure, every committed operation lies within the surviving prefix
//     and its data is still in the store.
//  2. Progress — once failures stop, every issued operation is eventually
//     either committed or was rolled back (no operation stays in limbo).
//  3. Rollback convergence — the system resumes committing after finitely
//     many (including nested) failures.
//
// Because session sequence numbering resumes at the surviving prefix after
// a failure (§4.2), sequence numbers are reused across world-lines; the
// ledger therefore tracks operation *instances*, each writing a unique key,
// so the store itself witnesses which instances survived. Batches go through
// the serving path's guarded admission, AdmitBatchGuarded … ReleaseBatch.
//
// Its old reds ("committed op … missing from store", about 1 trial run in
// 200 under -race) were a product bug, not the test: a recovered cut left
// out the workers that had committed nothing, and a session that skipped the
// round composed its cut with the next round's (core.Cut.Lower), which reads
// an absent worker as one that did not exist then — so the next round's
// wider cut re-covered operations the skipped round had erased, and the
// session reported them committed. Recovered cuts now name every member.
func TestDPRCorrectnessUnderRandomFailures(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			runRandomFailureTrial(t, int64(trial)*997+13)
		})
	}
}

// opInstance is one issued operation (one write of one unique key).
type opInstance struct {
	seq        uint64
	key        string
	worker     int
	version    core.Version
	committed  bool
	rolledBack bool
}

func runRandomFailureTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	h := newHarness(t, 3, metadata.FinderApproximate, 4*time.Millisecond)
	s, err := libdpr.NewSession(h.meta, true)
	if err != nil {
		t.Fatal(err)
	}

	// instances[seq] is a stack: the top entry is the live instance of that
	// sequence number on the current world-line.
	instances := make(map[uint64][]*opInstance)
	var all []*opInstance
	gen := 0

	top := func(seq uint64) *opInstance {
		st := instances[seq]
		if len(st) == 0 {
			return nil
		}
		return st[len(st)-1]
	}

	applyPrefix := func(p uint64, exc []uint64) {
		excSet := map[uint64]bool{}
		for _, e := range exc {
			excSet[e] = true
		}
		for seq, st := range instances {
			if seq <= p && !excSet[seq] {
				if inst := st[len(st)-1]; !inst.rolledBack {
					inst.committed = true
				}
			}
		}
	}

	handleFailure := func(surv *core.SurvivalError) {
		excSet := map[uint64]bool{}
		for _, e := range surv.Exceptions {
			excSet[e] = true
		}
		for seq := range instances {
			inst := top(seq)
			if inst == nil || inst.committed {
				// Property 1: a committed op must lie inside the surviving
				// prefix.
				if inst != nil && inst.committed && seq > surv.SurvivingPrefix {
					t.Fatalf("committed op %d beyond surviving prefix %d", seq, surv.SurvivingPrefix)
				}
				if inst != nil && inst.committed && excSet[seq] {
					t.Fatalf("committed op %d in exception list", seq)
				}
				continue
			}
			if seq > surv.SurvivingPrefix || excSet[seq] {
				inst.rolledBack = true
			}
		}
		s.Acknowledge()
	}

	refresh := func() {
		_, err := s.RefreshCommit()
		var surv *core.SurvivalError
		if err != nil {
			if !errors.As(err, &surv) {
				t.Fatalf("refresh: %v", err)
			}
			handleFailure(surv)
			return
		}
		p, exc := s.Committed()
		applyPrefix(p, exc)
	}

	failures := 0
	for i := 0; i < 400; i++ {
		widx := rng.Intn(3)
		hdr, err := s.NextBatch(1)
		if err != nil {
			var surv *core.SurvivalError
			if errors.As(err, &surv) {
				handleFailure(surv)
				continue
			}
			t.Fatal(err)
		}
		gen++
		inst := &opInstance{
			seq:    hdr.SeqStart,
			key:    fmt.Sprintf("op-%d-g%d", hdr.SeqStart, gen),
			worker: widx,
		}
		w := h.workers[widx]
		if _, err := w.AdmitBatchGuarded(hdr, h.lanes[widx]); err != nil {
			if errors.Is(err, libdpr.ErrBatchRejected) {
				refresh()
				continue
			}
			t.Fatal(err)
		}
		ver, err := h.kvSess[widx].Upsert([]byte(inst.key), []byte("x"))
		if err != nil {
			w.ReleaseBatch(hdr, h.lanes[widx], false)
			t.Fatal(err)
		}
		// As the serving frame does: record and reply while the guard holds
		// the world-line the batch executed on.
		w.RecordDependency(ver, hdr.Dep)
		reply := w.Reply([]core.Version{ver})
		w.ReleaseBatch(hdr, h.lanes[widx], true)
		inst.version = ver
		instances[inst.seq] = append(instances[inst.seq], inst)
		all = append(all, inst)
		if err := s.CompleteBatch(w.ID(), hdr, reply); err != nil {
			var surv *core.SurvivalError
			if errors.As(err, &surv) {
				handleFailure(surv)
				continue
			}
			t.Fatal(err)
		}
		refresh()
		// Random failure injection (bounded count; occasionally nested).
		if failures < 4 && rng.Intn(120) == 0 {
			failures++
			if _, _, err := h.mgr.OnFailure(); err != nil {
				t.Fatal(err)
			}
			if failures < 4 && rng.Intn(2) == 0 {
				failures++
				if _, _, err := h.mgr.OnFailure(); err != nil { // nested
					t.Fatal(err)
				}
			}
		}
	}

	// Failure-free suffix: the committed prefix must converge to cover every
	// live operation (progress + rollback convergence).
	deadline := time.Now().Add(10 * time.Second)
	for {
		refresh()
		p, exc := s.Committed()
		if len(exc) == 0 && p+1 == s.Tracker().NextSeq() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("progress violation: prefix %d, next seq %d, exceptions %v",
				p, s.Tracker().NextSeq(), exc)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Every instance is now either committed or rolled back — and the store
	// agrees: committed instances' keys exist, rolled-back ones' do not.
	var nCommitted, nRolledBack int
	for _, inst := range all {
		if !inst.committed && !inst.rolledBack {
			t.Fatalf("op %s neither committed nor rolled back", inst.key)
		}
		val, status, _ := h.kvSess[inst.worker].Read([]byte(inst.key), 0)
		present := status == kv.StatusOK && string(val) == "x"
		if inst.committed && !present {
			t.Fatalf("committed op %s missing from store (worker %d version %d; final cut %v; store rollbacks %d)",
				inst.key, inst.worker+1, inst.version, h.workers[inst.worker].CurrentCut(), h.stores[inst.worker].Rollbacks())
		}
		if inst.rolledBack && present {
			t.Fatalf("rolled-back op %s still in store", inst.key)
		}
		if inst.committed {
			nCommitted++
		} else {
			nRolledBack++
		}
	}
	if nCommitted == 0 {
		t.Fatal("trace committed nothing; test is vacuous")
	}
	if failures > 0 && h.mgr.Recoveries() != failures {
		t.Fatalf("expected %d recoveries, got %d", failures, h.mgr.Recoveries())
	}
	t.Logf("instances: %d committed, %d rolled back, %d failures", nCommitted, nRolledBack, failures)
}
