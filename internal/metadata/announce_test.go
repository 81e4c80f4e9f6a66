package metadata

import (
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/obs"
	"dpr/internal/storage"
)

func vmaxOf(t *testing.T, s Service) core.Version {
	t.Helper()
	_, vmax, _, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	return vmax
}

// TestAnnouncementRaisesVmax: a closing version is Vmax before anybody has
// persisted it, moves no cut, wakes the watchers once — the second worker to
// close the same version wakes nobody — and never lowers what is known.
func TestAnnouncementRaisesVmax(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStore(Config{Finder: FinderApproximate, Obs: reg})
	s.RegisterWorker(1, "a")
	s.RegisterWorker(2, "b")
	s.ReportVersion(1, 3, nil)
	s.ReportVersion(2, 3, nil)

	gen := s.Generation()
	woken := make(chan uint64, 1)
	go func() {
		g, _ := s.WaitStateChange(gen, 5*time.Second)
		woken <- g
	}()
	s.AnnounceCommit(1, 0, 4)
	if g := <-woken; g == gen {
		t.Fatal("an announcement above Vmax did not wake the watcher")
	}
	cut, vmax, _, _ := s.State()
	if vmax != 4 || cut.Get(1) != 3 || cut.Get(2) != 3 {
		t.Fatalf("after announcing 4: vmax %d cut %v, want 4 and a cut still at 3", vmax, cut)
	}
	if st := s.DebugState(); st.Closing != 4 || st.Vmax != 4 {
		t.Fatalf("/debug/dpr: closing %d vmax %d, want 4 and 4", st.Closing, st.Vmax)
	}

	gen = s.Generation()
	s.AnnounceCommit(2, 0, 4)  // the peer joining the round
	s.AnnounceCommit(2, 0, 2)  // below what is known
	s.AnnounceCommit(9, 0, 50) // not a member
	if s.Generation() != gen || vmaxOf(t, s) != 4 {
		t.Fatalf("announcements that raise nothing moved the state: gen %d -> %d, vmax %d",
			gen, s.Generation(), vmaxOf(t, s))
	}
	// Persisting past the announced version takes Vmax with it.
	s.ReportVersion(1, 6, nil)
	if v := vmaxOf(t, s); v != 6 {
		t.Fatalf("vmax %d after a report of 6", v)
	}
	s.AnnounceCommit(2, 0, 5)
	if st := s.DebugState(); st.Closing != 4 || st.Vmax != 6 {
		t.Fatalf("an announcement below the persisted Vmax was kept: closing %d vmax %d", st.Closing, st.Vmax)
	}
}

// TestAnnouncementDoesNotCrossWorldLines: the announced version belongs to
// the world-line it was closed on. A recovery drops it — Vmax falls back to
// what was persisted — a straggler still on the old world-line cannot put one
// back, and none of it reaches the snapshot.
func TestAnnouncementDoesNotCrossWorldLines(t *testing.T) {
	dev := storage.NewNull()
	s := NewStore(Config{Finder: FinderApproximate, Device: dev})
	s.RegisterWorker(1, "a")
	s.RegisterWorker(2, "b")
	s.ReportVersion(1, 3, nil)
	s.ReportVersion(2, 3, nil)
	s.AnnounceCommit(1, 0, 9)
	if v := vmaxOf(t, s); v != 9 {
		t.Fatalf("vmax %d after announcing 9", v)
	}

	wl, cut := s.BeginRecovery()
	if v := vmaxOf(t, s); v != cut.Max() || v != 3 {
		t.Fatalf("vmax %d after BeginRecovery, want the recovered cut's %d", v, cut.Max())
	}
	s.AnnounceCommit(2, wl-1, 12) // closed before the rollback, delivered after
	if v := vmaxOf(t, s); v != 3 {
		t.Fatalf("an announcement from world-line %d raised vmax to %d on world-line %d", wl-1, v, wl)
	}
	s.AnnounceCommit(2, wl, 5) // closed after rolling back: a round of the new world-line
	if v := vmaxOf(t, s); v != 5 {
		t.Fatalf("vmax %d after an announcement on the current world-line", v)
	}
	s.CompleteRecoveryFor(wl)

	s.Sync()
	_, snapCut, _, _, err := LoadSnapshot(dev)
	if err != nil {
		t.Fatal(err)
	}
	if snapCut.Max() != 3 {
		t.Fatalf("snapshot cut %v holds a version nobody persisted", snapCut)
	}
}

// TestAnnouncementOverRPC: the call is sent and not waited for, arrives, and
// carries its world-line — one closed before a recovery is ignored after it.
func TestAnnouncementOverRPC(t *testing.T) {
	store := NewStore(Config{Finder: FinderApproximate})
	_, ln, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RegisterWorker(1, "addr1"); err != nil {
		t.Fatal(err)
	}
	if err := client.ReportVersion(1, 2, nil); err != nil {
		t.Fatal(err)
	}
	waitVmax := func(want core.Version) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); vmaxOf(t, client) != want; {
			if time.Now().After(deadline) {
				t.Fatalf("vmax %d over RPC, want %d", vmaxOf(t, client), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	client.AnnounceCommit(1, 0, 4)
	waitVmax(4)

	wl, _ := store.BeginRecovery()
	waitVmax(2)
	client.AnnounceCommit(1, wl-1, 50)
	time.Sleep(20 * time.Millisecond) // calls on one connection are served concurrently
	client.AnnounceCommit(1, wl, 7)
	waitVmax(7)
	time.Sleep(20 * time.Millisecond)
	if v := vmaxOf(t, client); v != 7 {
		t.Fatalf("the old world-line's announcement landed: vmax %d", v)
	}

	// A dead connection loses the announcement and nothing else.
	client.Close()
	client.AnnounceCommit(1, wl, 9)
	if v := vmaxOf(t, store); v != 7 {
		t.Fatalf("vmax %d after an announcement on a closed connection", v)
	}
}
