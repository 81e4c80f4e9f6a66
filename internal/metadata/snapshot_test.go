package metadata

import (
	"sync"
	"testing"

	"dpr/internal/core"
	"dpr/internal/obs"
	"dpr/internal/storage"
)

// TestSnapshotWriteErrorCounted: a snapshot write the device fails is counted
// in dpr_finder_snapshot_write_errors_total, and the next one lands.
func TestSnapshotWriteErrorCounted(t *testing.T) {
	reg := obs.NewRegistry()
	dev := storage.NewFlaky(storage.NewNull())
	dev.FailNextWrites(1)
	s := NewStore(Config{Finder: FinderApproximate, Device: dev, Obs: reg})
	s.RegisterWorker(1, "a")
	s.Sync()
	failed := reg.Counter("dpr_finder_snapshot_write_errors_total", "")
	if got := failed.Value(); got != 1 {
		t.Fatalf("snapshot write errors = %d after one failed write, want 1", got)
	}
	s.SetOwner(3, 1)
	s.Sync()
	if got := failed.Value(); got != 1 {
		t.Fatalf("snapshot write errors = %d after a write that landed, want 1", got)
	}
	if _, _, members, owners, err := LoadSnapshot(dev); err != nil || members[1] != "a" || owners[3] != 1 {
		t.Fatalf("snapshot after the failed write: members %v owners %v err %v", members, owners, err)
	}
}

// snapshotRecorder keeps a copy of every snapshot written to the device.
type snapshotRecorder struct {
	storage.Device
	mu    sync.Mutex
	blobs [][]byte
}

func (r *snapshotRecorder) WriteAsync(blob string, off int64, data []byte, done func(error)) {
	if blob == snapshotBlob {
		r.mu.Lock()
		r.blobs = append(r.blobs, append([]byte(nil), data...))
		r.mu.Unlock()
	}
	r.Device.WriteAsync(blob, off, data, done)
}

// TestSnapshotIsOneState: every snapshot is one state of the store. While
// workers register, take partitions, report and recover, each written
// snapshot names as owners and in its cut only workers that are members in
// that same snapshot. A snapshot gathered table by table could name an owner
// registered after its member table was read.
func TestSnapshotIsOneState(t *testing.T) {
	for _, k := range []FinderKind{FinderExact, FinderApproximate, FinderHybrid} {
		t.Run(k.String(), func(t *testing.T) {
			dev := &snapshotRecorder{Device: storage.NewNull()}
			s := NewStore(Config{Finder: k, Device: dev, Obs: obs.NewRegistry()})
			const workers, rounds = 4, 50
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				w := core.WorkerID(g + 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						s.RegisterWorker(w, "addr")
						s.SetOwner(uint64(g*rounds+i), w)
						s.AckWorldLine(w, s.WorldLine())
						s.ReportVersion(w, core.Version(i+1), nil) // refused while not acked
						if i%10 == 9 && g == 0 {
							wl, _ := s.BeginRecovery()
							s.CompleteRecoveryFor(wl)
						}
					}
				}()
			}
			wg.Wait()
			s.Sync()
			dev.mu.Lock()
			defer dev.mu.Unlock()
			if len(dev.blobs) == 0 {
				t.Fatal("no snapshot written")
			}
			for i, b := range dev.blobs {
				d := storage.NewNull()
				if err := d.Write(snapshotBlob, 0, b); err != nil {
					t.Fatal(err)
				}
				_, cut, members, owners, err := LoadSnapshot(d)
				if err != nil {
					t.Fatalf("snapshot %d: %v", i, err)
				}
				for p, w := range owners {
					if _, ok := members[w]; !ok {
						t.Fatalf("snapshot %d: partition %d owned by %d, not among its members %v", i, p, w, members)
					}
				}
				for w := range cut {
					if _, ok := members[w]; !ok {
						t.Fatalf("snapshot %d: cut %v names %d, not among its members %v", i, cut, w, members)
					}
				}
			}
		})
	}
}
