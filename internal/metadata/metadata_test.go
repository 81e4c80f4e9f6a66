package metadata

import (
	"encoding/binary"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/storage"
)

func TestRegisterReportState(t *testing.T) {
	s := NewStore(Config{Finder: FinderApproximate})
	if err := s.RegisterWorker(1, "addr1"); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterWorker(2, "addr2"); err != nil {
		t.Fatal(err)
	}
	if err := s.ReportVersion(1, 3, nil); err != nil {
		t.Fatal(err)
	}
	cut, vmax, wl, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	if vmax != 3 || wl != 0 {
		t.Fatalf("vmax=%d wl=%d", vmax, wl)
	}
	if cut.Get(1) != 0 {
		t.Fatalf("cut must be pinned by worker 2: %v", cut)
	}
	if err := s.ReportVersion(2, 2, nil); err != nil {
		t.Fatal(err)
	}
	cut, _, _, _ = s.State()
	if cut.Get(1) != 2 || cut.Get(2) != 2 {
		t.Fatalf("cut %v, want both at 2", cut)
	}
}

// State hands out the published cut itself: between two mutations every call
// returns the same map and allocates nothing, and a mutation publishes a new
// map instead of changing the one earlier callers hold.
func TestStateSharesThePublishedCut(t *testing.T) {
	s := NewStore(Config{Finder: FinderApproximate})
	for w := core.WorkerID(1); w <= 2; w++ {
		if err := s.RegisterWorker(w, "addr"); err != nil {
			t.Fatal(err)
		}
		if err := s.ReportVersion(w, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	before, _, _, _ := s.State()
	if allocs := testing.AllocsPerRun(100, func() { s.State() }); allocs != 0 {
		t.Fatalf("State allocates %v times per call", allocs)
	}
	if err := s.ReportVersion(1, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ReportVersion(2, 2, nil); err != nil {
		t.Fatal(err)
	}
	after, _, _, _ := s.State()
	if before.Get(1) != 1 || after.Get(1) != 2 {
		t.Fatalf("cut held from before the reports %v, after them %v; want 1 and 2 for worker 1", before, after)
	}
}

// raceDetector is set by race_test.go: under the detector sync.Pool drops a
// share of what it is given, on purpose.
var raceDetector bool

// A long-poll leg takes its timeout from a pool: no timer or channel per call.
func TestWaitStateChangeLegAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	s := NewStore(Config{})
	gen := s.Generation()
	if allocs := testing.AllocsPerRun(100, func() { s.WaitStateChange(gen, 50*time.Microsecond) }); allocs != 0 {
		t.Fatalf("a timed-out WaitStateChange leg allocates %v times", allocs)
	}
}

func TestReportUnknownWorker(t *testing.T) {
	s := NewStore(Config{})
	if err := s.ReportVersion(9, 1, nil); err == nil {
		t.Fatal("unknown worker must be rejected")
	}
}

func TestMembersAndOwnership(t *testing.T) {
	s := NewStore(Config{})
	s.RegisterWorker(1, "a")
	s.RegisterWorker(2, "b")
	m, err := s.Members()
	if err != nil || len(m) != 2 || m[1] != "a" {
		t.Fatalf("members %v %v", m, err)
	}
	if _, err := s.OwnerOf(5); err == nil {
		t.Fatal("unowned partition must error")
	}
	if err := s.SetOwner(5, 2); err != nil {
		t.Fatal(err)
	}
	w, err := s.OwnerOf(5)
	if err != nil || w != 2 {
		t.Fatalf("owner %d %v", w, err)
	}
	// A restarted worker registers again at its new address and keeps its
	// partitions.
	s.RegisterWorker(2, "b2")
	if m, _ = s.Members(); len(m) != 2 || m[2] != "b2" {
		t.Fatalf("members after worker 2 registered again: %v", m)
	}
	if w, err = s.OwnerOf(5); err != nil || w != 2 {
		t.Fatalf("owner after worker 2 registered again: %d %v", w, err)
	}
}

func TestRecoveryFreezesCut(t *testing.T) {
	s := NewStore(Config{Finder: FinderApproximate})
	s.RegisterWorker(1, "a")
	s.ReportVersion(1, 2, nil)
	wl, cut := s.BeginRecovery()
	if wl != 1 || cut.Get(1) != 2 {
		t.Fatalf("wl=%d cut=%v", wl, cut)
	}
	if !s.Frozen() {
		t.Fatal("store must be frozen during recovery")
	}
	// A worker reports on the new world-line only once it has rolled back
	// into it: what it persisted before that is erased by the rollback.
	if err := s.ReportVersion(1, 5, nil); err == nil {
		t.Fatal("a report from a worker that has not acked the new world-line must be refused")
	}
	s.AckWorldLine(1, wl)
	// Reports during recovery do not move the *visible* cut.
	s.ReportVersion(1, 5, nil)
	c2, _, wl2, _ := s.State()
	if c2.Get(1) != 2 || wl2 != 1 {
		t.Fatalf("cut must be frozen: %v (wl %d)", c2, wl2)
	}
	// Nested failure: same cut, next world-line.
	wl3, cut3 := s.BeginRecovery()
	if wl3 != 2 || !cut3.Equal(cut) {
		t.Fatalf("nested recovery: wl=%d cut=%v", wl3, cut3)
	}
	s.CompleteRecoveryFor(wl3)
	if s.Frozen() {
		t.Fatal("store must unfreeze")
	}
	c4, _, _, _ := s.State()
	if c4.Get(1) != 5 {
		t.Fatalf("cut must thaw to the live value: %v", c4)
	}
	// Recovered cuts retrievable per world-line.
	for _, w := range []core.WorldLine{1, 2} {
		rc, err := s.RecoveredCut(w)
		if err != nil || rc.Get(1) != 2 {
			t.Fatalf("recovered cut for %d: %v %v", w, rc, err)
		}
	}
	if _, err := s.RecoveredCut(9); err == nil {
		t.Fatal("unknown world-line must error")
	}
}

func TestAccessLatencyInjection(t *testing.T) {
	s := NewStore(Config{AccessLatency: 5 * time.Millisecond})
	s.RegisterWorker(1, "a")
	start := time.Now()
	s.State()
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("latency injection not applied")
	}
}

func TestPersistAndLoadSnapshot(t *testing.T) {
	dev := storage.NewNull()
	s := NewStore(Config{Finder: FinderApproximate, Device: dev})
	s.RegisterWorker(1, "addr1")
	s.ReportVersion(1, 4, nil)
	s.SetOwner(7, 1)
	rwl, _ := s.BeginRecovery()
	s.CompleteRecoveryFor(rwl)
	s.Sync() // wait for the serialized flusher to land the final snapshot
	wl, cut, members, ownership, err := LoadSnapshot(dev)
	if err != nil {
		t.Fatal(err)
	}
	if wl != 1 || cut.Get(1) != 4 || members[1] != "addr1" || ownership[7] != 1 {
		t.Fatalf("snapshot: wl=%d cut=%v members=%v own=%v", wl, cut, members, ownership)
	}
}

// TestLoadSnapshotRejectsDamage: a blob cut short inside any of its sections,
// or whose address length runs past its end, fails the load instead of
// panicking on the device's bytes.
func TestLoadSnapshotRejectsDamage(t *testing.T) {
	dev := storage.NewNull()
	s := NewStore(Config{Finder: FinderApproximate, Device: dev})
	s.RegisterWorker(1, "addr1")
	s.ReportVersion(1, 4, nil)
	s.SetOwner(7, 1)
	wl, _ := s.BeginRecovery()
	s.CompleteRecoveryFor(wl)
	s.Sync()
	raw, err := dev.Read("dpr-metadata", 0, int(dev.BlobSize("dpr-metadata")))
	if err != nil {
		t.Fatal(err)
	}
	// world-line | cut: count, (worker, version) | members: count, (worker,
	// address length, address) | owners: count, (partition, worker)
	const cutAt, membersAt = 8, 8 + 8 + 16
	ownersAt := membersAt + 8 + 16 + len("addr1")
	if len(raw) != ownersAt+8+16 {
		t.Fatalf("snapshot is %d bytes, want %d", len(raw), ownersAt+8+16)
	}
	inflated := func(l uint64) []byte {
		b := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(b[membersAt+8+8:], l)
		return b
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"world-line", raw[:4]},
		{"cut", raw[:cutAt+8+12]},
		{"members", raw[:ownersAt-2]},
		{"owners", raw[:ownersAt+8+12]},
		{"address length past the end", inflated(uint64(len(raw)))},
		{"address length overflows", inflated(1 << 63)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := storage.NewNull()
			if err := d.Write("dpr-metadata", 0, tc.blob); err != nil {
				t.Fatal(err)
			}
			if _, _, _, _, err := LoadSnapshot(d); err == nil {
				t.Fatalf("loaded a damaged snapshot (%d bytes)", len(tc.blob))
			}
		})
	}
	if _, _, _, _, err := LoadSnapshot(dev); err != nil {
		t.Fatalf("the undamaged snapshot: %v", err)
	}
}

func TestLoadSnapshotMissing(t *testing.T) {
	if _, _, _, _, err := LoadSnapshot(storage.NewNull()); err == nil {
		t.Fatal("missing snapshot must error")
	}
}

func TestFinderKinds(t *testing.T) {
	for _, k := range []FinderKind{FinderExact, FinderApproximate, FinderHybrid} {
		f := NewFinder(k)
		f.AddWorker(1)
		f.Report(1, 1, nil)
		if f.CurrentCut().Get(1) != 1 {
			t.Fatalf("%s finder did not advance", k)
		}
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

// TestRecoveredCutNamesEveryMember: a recovered cut lists every member, at 0
// if it has committed nothing, so composed with a later round's wider cut
// (what a session that skipped this round does) such a member stays at 0.
// Left out, it read as a worker that did not exist at this round, and the
// later cut re-covered what the round had erased on it: libdpr's
// random-failure trial then found committed operations missing.
func TestRecoveredCutNamesEveryMember(t *testing.T) {
	s := NewStore(Config{Finder: FinderApproximate})
	s.RegisterWorker(1, "a")
	s.RegisterWorker(2, "b")
	s.ReportVersion(1, 2, nil)
	wl, cut := s.BeginRecovery()
	rc, err := s.RecoveredCut(wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []core.Cut{cut, rc} {
		if _, ok := c[2]; !ok {
			t.Fatalf("recovered cut %v leaves out member 2", c)
		}
	}
	rc.Lower(core.Cut{1: 5, 2: 5})
	if rc.Get(2) != 0 {
		t.Fatalf("composed cut %v: member 2 committed nothing, so it must stay at 0", rc)
	}
}
