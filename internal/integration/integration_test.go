// Package integration drives the real cmd/ binaries as separate OS
// processes: a dpr-finder, two dpr-server workers with file-backed storage,
// and a client — then kills a worker, lets heartbeat detection trigger
// recovery, restarts the worker with -recover, and verifies committed data
// survived while uncommitted data did not. This is the closest this
// repository gets to the paper's deployment scenario.
package integration

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"net"

	"dpr/internal/dfaster"
	"dpr/internal/metadata"
	"dpr/internal/wire"
)

func buildBinaries(t *testing.T, dir string) (finder, server string) {
	t.Helper()
	finder = filepath.Join(dir, "dpr-finder")
	server = filepath.Join(dir, "dpr-server")
	for bin, pkg := range map[string]string{finder: "dpr/cmd/dpr-finder", server: "dpr/cmd/dpr-server"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	return finder, server
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "..", "..")
}

var logDir = func() string {
	d := filepath.Join(os.TempDir(), "dpr-itest-logs")
	os.MkdirAll(d, 0o755)
	return d
}()

func startProc(t *testing.T, logName, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	logf, err := os.Create(filepath.Join(logDir, logName))
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		logf.Close()
	})
	return cmd
}

const (
	finderAddr = "127.0.0.1:17700"
	finderObs  = "127.0.0.1:17701"
	w1Addr     = "127.0.0.1:17801"
	w2Addr     = "127.0.0.1:17802"
	partitions = 16
)

func TestMultiProcessCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test; skipped with -short")
	}
	binDir := t.TempDir()
	finderBin, serverBin := buildBinaries(t, binDir)
	dataDir := t.TempDir()
	os.MkdirAll(filepath.Join(dataDir, "w1"), 0o755)
	os.MkdirAll(filepath.Join(dataDir, "w2"), 0o755)

	// Generous heartbeat timeout: this box has one CPU core, and when the
	// test runs alongside other packages a healthy worker can be starved
	// past a short timeout, triggering a spurious failure detection.
	startProc(t, "finder.log", finderBin,
		"-listen", finderAddr, "-hb-timeout", "4s", "-hb-check", "200ms", "-obs-addr", finderObs)
	waitDialable(t, finderAddr)

	evens, odds := stridedPartitions()
	startProc(t, "w1.log", serverBin,
		"-id", "1", "-listen", w1Addr, "-finder", finderAddr,
		"-partitions", fmt.Sprint(partitions), "-own", evens,
		"-data", filepath.Join(dataDir, "w1"), "-checkpoint", "40ms", "-heartbeat", "100ms")
	w2 := startProc(t, "w2.log", serverBin,
		"-id", "2", "-listen", w2Addr, "-finder", finderAddr,
		"-partitions", fmt.Sprint(partitions), "-own", odds,
		"-data", filepath.Join(dataDir, "w2"), "-checkpoint", "40ms", "-heartbeat", "100ms")
	waitDialable(t, w1Addr)
	waitDialable(t, w2Addr)

	meta, err := metadata.Dial(finderAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer meta.Close()
	client := newClient(t, meta)

	// Committed writes.
	for i := 0; i < 20; i++ {
		if err := client.Upsert([]byte(fmt.Sprintf("committed-%d", i)), []byte("yes"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.WaitCommitAll(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Kill worker 2 hard; heartbeat detection declares it failed and the
	// finder coordinates recovery. Compare against the pre-kill world-line
	// in case contention already triggered a (correctly handled) spurious
	// recovery earlier.
	_, _, wlBefore, err := meta.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	w2.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, wl, err := meta.State()
		if err == nil && wl > wlBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finder never advanced the world-line after worker death")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The round waits for the survivor's rollback alone (the dead worker is
	// named down), and the survivor rolls itself back within milliseconds:
	// progress resumes long before the round's 10 s ack bound.
	bumped := time.Now()
	for scrapeDebug(t, finderObs).Frozen {
		if time.Since(bumped) > 2*time.Second {
			t.Fatal("finder still frozen 2 s after the world-line bump")
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("DPR progress resumed %v after the world-line bump was seen", time.Since(bumped).Round(time.Millisecond))

	// Restart worker 2 with -recover.
	startProc(t, "w2b.log", serverBin,
		"-id", "2", "-listen", w2Addr, "-finder", finderAddr,
		"-partitions", fmt.Sprint(partitions), "-own", odds,
		"-data", filepath.Join(dataDir, "w2"), "-recover",
		"-checkpoint", "40ms", "-heartbeat", "100ms")
	waitDialable(t, w2Addr)

	// A fresh client on the new world-line sees every committed key. The
	// client reports transient conditions — BadOwner while ownership
	// propagates, Rejected while a server catches up to the new world-line —
	// as StatusError, so distinguish unavailability from loss: retry errored
	// reads with a bounded deadline and count only NotFound (or an error
	// that persists past the deadline) as a missing key.
	client2 := newClient(t, meta)
	missing := 0
	readDeadline := time.Now().Add(20 * time.Second)
	for i := 0; i < 20; i++ {
		key := []byte(fmt.Sprintf("committed-%d", i))
		for {
			got := make(chan byte, 1)
			if err := client2.Read(key, func(r wire.OpResult) { got <- r.Status }); err != nil {
				t.Fatal(err)
			}
			if err := client2.Flush(); err != nil {
				t.Fatal(err)
			}
			var status byte
			select {
			case status = <-got:
			case <-time.After(10 * time.Second):
				t.Fatal("read timed out")
			}
			if status == wire.StatusOK {
				break
			}
			if status == wire.StatusNotFound {
				t.Logf("committed-%d: not found", i)
				missing++
				break
			}
			if time.Now().After(readDeadline) {
				t.Logf("committed-%d: still erroring at deadline", i)
				missing++
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	if missing > 0 {
		t.Fatalf("%d committed keys missing after crash recovery", missing)
	}
	// And the cluster keeps committing.
	if err := client2.Upsert([]byte("post-recovery"), []byte("works"), nil); err != nil {
		t.Fatal(err)
	}
	if err := client2.WaitCommitAll(20 * time.Second); err != nil {
		t.Fatalf("commits did not resume: %v", err)
	}
}

func newClient(t *testing.T, meta metadata.Service) *dfaster.Client {
	t.Helper()
	c, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions: partitions, BatchSize: 1, Window: 16, Relaxed: true,
	}, meta)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func stridedPartitions() (evens, odds string) {
	for p := 0; p < partitions; p++ {
		s := fmt.Sprint(p)
		if p%2 == 0 {
			if evens != "" {
				evens += ","
			}
			evens += s
		} else {
			if odds != "" {
				odds += ","
			}
			odds += s
		}
	}
	return
}

func waitDialable(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := dialTCP(addr)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never came up", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func dialTCP(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, time.Second)
}
