package metadata

import (
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/leakcheck"
)

func TestRPCRoundTrip(t *testing.T) {
	store := NewStore(Config{Finder: FinderApproximate})
	svc, ln, err := Serve(store, "127.0.0.1:0")
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
	if err := client.RegisterWorker(2, "addr2"); err != nil {
		t.Fatal(err)
	}
	if err := client.ReportVersion(1, 2, []core.Token{{Worker: 2, Version: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := client.ReportVersion(2, 2, nil); err != nil {
		t.Fatal(err)
	}
	cut, vmax, wl, err := client.State()
	if err != nil {
		t.Fatal(err)
	}
	if cut.Get(1) != 2 || cut.Get(2) != 2 || vmax != 2 || wl != 0 {
		t.Fatalf("state: %v %d %d", cut, vmax, wl)
	}
	members, err := client.Members()
	if err != nil || len(members) != 2 || members[1] != "addr1" {
		t.Fatalf("members: %v %v", members, err)
	}
	if err := client.SetOwner(7, 2); err != nil {
		t.Fatal(err)
	}
	w, err := client.OwnerOf(7)
	if err != nil || w != 2 {
		t.Fatalf("owner: %d %v", w, err)
	}
	if _, err := client.OwnerOf(99); err == nil {
		t.Fatal("unowned partition must error over RPC")
	}

	// Recovery flow over RPC.
	store.BeginRecovery()
	rc, err := client.RecoveredCut(1)
	if err != nil || rc.Get(1) != 2 {
		t.Fatalf("recovered cut: %v %v", rc, err)
	}
	if err := client.AckWorldLine(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := client.AckWorldLine(2, 1); err != nil {
		t.Fatal(err)
	}
	if !store.AwaitAcks(1, nil, time.Second) {
		t.Fatal("acks must arrive via RPC")
	}

	// Heartbeats.
	if err := client.Heartbeat(1); err != nil {
		t.Fatal(err)
	}
	if silent := svc.Silent(time.Minute); len(silent) != 0 {
		t.Fatalf("fresh heartbeat declared silent: %v", silent)
	}
	time.Sleep(5 * time.Millisecond)
	if silent := svc.Silent(time.Millisecond); len(silent) != 1 || silent[0] != 1 {
		t.Fatalf("stale heartbeat not detected: %v", silent)
	}
}

func TestRPCWorkerThroughService(t *testing.T) {
	// The RPC client must be usable as the Service behind a libdpr worker;
	// exercised fully in cmd integration, here just the interface check and
	// a state round trip under concurrent callers.
	store := NewStore(Config{Finder: FinderApproximate})
	_, ln, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var svc Service
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	svc = client
	if err := svc.RegisterWorker(5, "x"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, _, _, err := svc.State(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeStopJoinsGoroutines is the regression test for the serving-stack
// leak the goroutine-lifecycle checker found: Serve used to spawn an accept
// loop and per-connection ServeConn goroutines that nothing could stop, so a
// finder teardown left goroutines parked in gob reads forever. Stop must
// close the listener and every live connection and join all of them.
func TestServeStopJoinsGoroutines(t *testing.T) {
	store := NewStore(Config{Finder: FinderApproximate})
	svc, ln, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Park a few live connections mid-request-stream.
	var clients []*RPCClient
	for i := 0; i < 3; i++ {
		c, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		if err := c.Heartbeat(core.WorkerID(i + 1)); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() {
		svc.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not join the serving goroutines: accept loop or a ServeConn leaked")
	}
	// The listener is down and the parked conns are dead.
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("listener still accepting after Stop")
	}
	for _, c := range clients {
		if err := c.Heartbeat(9); err == nil {
			t.Fatal("connection survived Stop")
		}
	}
	// Stop is idempotent.
	svc.Stop()
	leakcheck.Check(t)
}
