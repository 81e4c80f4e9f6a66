package kv

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"dpr/internal/core"
	"dpr/internal/storage"
)

// lossyDevice acknowledges the writes its predicate selects without
// performing them: what a crash between a seal's two concurrent writes leaves
// behind, seen from the store's side as a success.
type lossyDevice struct {
	storage.Device
	drop atomic.Pointer[func(blob string) bool]
}

func (d *lossyDevice) WriteAsync(blob string, offset int64, data []byte, done func(error)) {
	if f := d.drop.Load(); f != nil && (*f)(blob) {
		go done(nil)
		return
	}
	d.Device.WriteAsync(blob, offset, data, done)
}

func (d *lossyDevice) dropping(f func(blob string) bool) {
	if f == nil {
		d.drop.Store(nil)
		return
	}
	d.drop.Store(&f)
}

func isRecord(blob string) bool { return strings.Contains(blob, "-ckpt-") }

// flipByte corrupts one byte of a blob in place.
func flipByte(t *testing.T, dev storage.Device, blob string, off int64) {
	t.Helper()
	b, err := dev.Read(blob, off, 1)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if err := writeAll(dev, []blobWrite{{blob: blob, off: off, data: b}}); err != nil {
		t.Fatal(err)
	}
}

// newestRecord decodes the record with the higher sequence number, valid data
// or not.
func newestRecord(t *testing.T, dev storage.Device) *checkpointMeta {
	t.Helper()
	recs, err := readCheckpoints(dev, "hlog")
	if err != nil || len(recs) == 0 {
		t.Fatalf("no checkpoint record: %v", err)
	}
	return recs[0]
}

type sealEnv struct {
	name string
	open func(t *testing.T) storage.Device
}

var sealDevices = []sealEnv{
	{"mem", func(*testing.T) storage.Device { return storage.NewNull() }},
	{"file", func(t *testing.T) storage.Device {
		d, err := storage.NewFileDevice(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}},
}

var sealModes = []struct {
	name string
	cfg  Config
}{
	{"fold-over", Config{BucketCount: 1 << 8}},
	{"snapshot", Config{BucketCount: 1 << 8, Checkpoint: Snapshot}},
	{"delta", deltaConfig()},
}

// forEachSealSetup runs fn once per device kind and checkpoint mode, over a
// lossy(flaky(device)) stack.
func forEachSealSetup(t *testing.T, fn func(t *testing.T, lossy *lossyDevice, flaky *storage.FlakyDevice, cfg Config)) {
	for _, env := range sealDevices {
		for _, mode := range sealModes {
			t.Run(env.name+"/"+mode.name, func(t *testing.T) {
				inner := env.open(t)
				defer inner.Close()
				flaky := storage.NewFlaky(inner)
				fn(t, &lossyDevice{Device: flaky}, flaky, mode.cfg)
			})
		}
	}
}

// writeGen overwrites the shared key and adds one key of its own, so every
// generation is visible both as "the latest value" and as "a key that exists".
func writeGen(sess *Session, gen int) {
	sess.Upsert([]byte("k"), []byte(fmt.Sprintf("gen%d", gen)))
	sess.Upsert([]byte(fmt.Sprintf("only-%d", gen)), []byte("x"))
}

// expectGen checks that a recovered store holds exactly generations <= gen.
func expectGen(t *testing.T, s *Store, gen int) {
	t.Helper()
	sess := s.NewSession()
	defer sess.Close()
	if got := mustRead(t, sess, "k"); string(got) != fmt.Sprintf("gen%d", gen) {
		t.Fatalf("k = %q, want gen%d", got, gen)
	}
	for g := 1; g <= gen+1; g++ {
		_, status, _ := sess.Read([]byte(fmt.Sprintf("only-%d", g)), 0)
		if (status == StatusOK) != (g <= gen) {
			t.Fatalf("only-%d: status %v after recovering generation %d", g, status, gen)
		}
	}
}

// TestTornSealFallsBackToPreviousSlot: whatever a crash mid-seal leaves in
// the newest slot or its data, recovery lands on the previous durable
// version, and the next seal overwrites the bad slot.
func TestTornSealFallsBackToPreviousSlot(t *testing.T) {
	cases := []struct {
		name string
		// arm runs before the second seal; damage after it.
		arm    func(*lossyDevice)
		damage func(t *testing.T, dev storage.Device, m *checkpointMeta)
	}{
		{
			name: "record torn",
			damage: func(t *testing.T, dev storage.Device, m *checkpointMeta) {
				flipByte(t, dev, ckptSlotName("hlog", m.Seq), 20) // inside the version word
			},
		},
		{
			name: "record never landed",
			arm:  func(d *lossyDevice) { d.dropping(isRecord) },
		},
		{
			name: "data corrupted",
			damage: func(t *testing.T, dev storage.Device, m *checkpointMeta) {
				if m.Kind == Snapshot {
					flipByte(t, dev, m.dataBlob(), m.Boundary-1)
				} else {
					flipByte(t, dev, "hlog", m.Boundary-1)
				}
			},
		},
		{
			name: "data never landed",
			arm:  func(d *lossyDevice) { d.dropping(func(blob string) bool { return !isRecord(blob) }) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forEachSealSetup(t, func(t *testing.T, dev *lossyDevice, _ *storage.FlakyDevice, cfg Config) {
				s := NewStore(dev, cfg)
				sess := s.NewSession()
				writeGen(sess, 1)
				v1 := commitAll(t, s)
				writeGen(sess, 2)
				if tc.arm != nil {
					tc.arm(dev)
				}
				v2 := commitAll(t, s)
				dev.dropping(nil)
				sess.Close()
				s.Close() // crash
				if tc.damage != nil {
					tc.damage(t, dev, newestRecord(t, dev))
				}

				if got := LatestCheckpoint(dev, "hlog"); got != v1 {
					t.Fatalf("LatestCheckpoint = %d, want the previous seal %d", got, v1)
				}
				if _, err := Recover(dev, cfg, v2); err == nil {
					t.Fatalf("recovered version %d from a torn seal", v2)
				}
				r, err := Recover(dev, cfg, v1)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				expectGen(t, r, 1)

				// The next seal takes the torn seal's sequence number, and so
				// its slot.
				rs := r.NewSession()
				writeGen(rs, 2)
				rs.Close()
				v3 := commitAll(t, r)
				recs, err := readCheckpoints(dev, "hlog")
				if err != nil || len(recs) != 2 {
					t.Fatalf("want two valid records after the repair seal, got %d (%v)", len(recs), err)
				}
				if recs[0].Seq != 2 || recs[0].Version != v3 || recs[1].Seq != 1 || recs[1].Version != v1 {
					t.Fatalf("slots after repair: %+v / %+v", recs[0], recs[1])
				}
				if got := LatestCheckpoint(dev, "hlog"); got != v3 {
					t.Fatalf("LatestCheckpoint after repair = %d, want %d", got, v3)
				}
				r2, err := Recover(dev, cfg, v3)
				if err != nil {
					t.Fatal(err)
				}
				defer r2.Close()
				expectGen(t, r2, 2)
			})
		})
	}
}

// TestSingleSlotRecovery: a device that has seen exactly one seal recovers
// from the one slot, and has nothing to fall back to when that slot is torn.
func TestSingleSlotRecovery(t *testing.T) {
	forEachSealSetup(t, func(t *testing.T, dev *lossyDevice, _ *storage.FlakyDevice, cfg Config) {
		s := NewStore(dev, cfg)
		sess := s.NewSession()
		writeGen(sess, 1)
		v1 := commitAll(t, s)
		sess.Close()
		s.Close()
		if dev.BlobSize(ckptSlotName("hlog", 1)) == 0 || dev.BlobSize(ckptSlotName("hlog", 0)) != 0 {
			t.Fatal("the first seal must write slot 1 and leave slot 0 absent")
		}
		r, err := Recover(dev, cfg, v1)
		if err != nil {
			t.Fatal(err)
		}
		expectGen(t, r, 1)
		r.Close()

		flipByte(t, dev, ckptSlotName("hlog", 1), 20)
		if got := LatestCheckpoint(dev, "hlog"); got != 0 {
			t.Fatalf("LatestCheckpoint = %d over a torn only slot", got)
		}
		if _, err := Recover(dev, cfg, v1); err == nil {
			t.Fatal("recovered from a torn only slot")
		}
	})
}

// TestFailedSealRetryCoversWiderRange: a storage error in the middle of a
// seal persists nothing and keeps the previous checkpoint recoverable; the
// retry seals everything written since the last success — the failed seal's
// range included — into the same slot.
func TestFailedSealRetryCoversWiderRange(t *testing.T) {
	forEachSealSetup(t, func(t *testing.T, dev *lossyDevice, flaky *storage.FlakyDevice, cfg Config) {
		s := NewStore(dev, cfg)
		sess := s.NewSession()
		writeGen(sess, 1)
		v1 := commitAll(t, s)
		first := newestRecord(t, dev)

		writeGen(sess, 2)
		flaky.FailNextWrites(1) // one of the seal's concurrent writes
		target := s.CurrentVersion()
		if err := s.BeginCommit(target); err != nil {
			t.Fatal(err)
		}
		for s.CurrentVersion() == target || s.CurrentPhase() != PhaseRest {
			runtime.Gosched() // the failed checkpoint still shifts the version; wait it out
		}
		if s.PersistedVersion() != v1 {
			t.Fatalf("persisted %d after a failed seal, want %d", s.PersistedVersion(), v1)
		}
		if got := LatestCheckpoint(dev, "hlog"); got != v1 {
			t.Fatalf("LatestCheckpoint = %d after a failed seal, want %d", got, v1)
		}

		writeGen(sess, 3)
		v3 := commitAll(t, s)
		sess.Close()
		s.Close()
		m := newestRecord(t, dev)
		if m.Seq != first.Seq+1 || m.Version != v3 {
			t.Fatalf("retry record %+v, want seq %d version %d", m, first.Seq+1, v3)
		}
		if cfg.Checkpoint == FoldOver && m.From != first.Boundary {
			t.Fatalf("retry flushed from %d, want the last durable boundary %d", m.From, first.Boundary)
		}
		if cfg.Checkpoint == Snapshot && m.Delta {
			t.Fatal("the retry after a failed snapshot-mode seal must be a full snapshot")
		}
		r, err := Recover(dev, cfg, v3)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		expectGen(t, r, 3)
	})
}

// TestSealsDoNotLeakBlobs pins the two-slot layout: the device's blob set is
// fixed after the second seal, however many follow.
func TestSealsDoNotLeakBlobs(t *testing.T) {
	dev := storage.NewNull()
	s := NewStore(dev, Config{BucketCount: 1 << 8})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	sealed := make(chan core.Version, 1) // seals are awaited one at a time
	s.OnPersist(func(v core.Version) { sealed <- v })
	var want []string
	for i := 0; i < 2000; i++ {
		sess.Upsert([]byte("k"), []byte(fmt.Sprintf("%d", i)))
		if err := s.BeginCommit(s.CurrentVersion()); err != nil {
			t.Fatal(err)
		}
		<-sealed
		if i < 1 {
			continue
		}
		got := dev.Blobs()
		sort.Strings(got)
		if i == 1 {
			want = got
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seal %d changed the blob set: %v, was %v", i+1, got, want)
		}
	}
	if len(want) != 3 {
		t.Fatalf("blobs %v, want the log and two record slots", want)
	}
	if got, wantV := LatestCheckpoint(dev, "hlog"), s.PersistedVersion(); got != wantV {
		t.Fatalf("LatestCheckpoint = %d, want %d", got, wantV)
	}
}

// TestRecordSurvivesLongerPredecessor: a record shorter than the one it
// overwrites (fewer rolled-back ranges) still decodes; the stale tail is
// ignored.
func TestRecordSurvivesLongerPredecessor(t *testing.T) {
	long := checkpointMeta{Seq: 1, Version: 3, Ranges: []versionRange{{1, 2}, {4, 6}}}
	short := checkpointMeta{Seq: 3, Version: 9, From: 16, Boundary: 64, DataCRC: 7}
	slot := long.encode()
	copy(slot, short.encode())
	m, ok := decodeCheckpoint(slot)
	if !ok || m.Seq != 3 || m.Version != core.Version(9) || m.Boundary != 64 || len(m.Ranges) != 0 {
		t.Fatalf("decoded %+v ok=%v", m, ok)
	}
	if _, ok := decodeCheckpoint(slot[:len(short.encode())-1]); ok {
		t.Fatal("a truncated record must not decode")
	}
}

// TestNewStoreDiscardsOlderIncarnation: a store started fresh on a device an
// earlier store sealed to numbers its records from 1 again; the stranger's
// records, with their higher sequence numbers and still-valid data, must not
// win the next recovery.
func TestNewStoreDiscardsOlderIncarnation(t *testing.T) {
	forEachSealSetup(t, func(t *testing.T, dev *lossyDevice, _ *storage.FlakyDevice, cfg Config) {
		old := NewStore(dev, cfg)
		sess := old.NewSession()
		for gen := 1; gen <= 5; gen++ {
			writeGen(sess, gen)
			commitAll(t, old)
		}
		sess.Close()
		old.Close()

		s := NewStore(dev, cfg)
		if got := LatestCheckpoint(dev, "hlog"); got != 0 {
			t.Fatalf("LatestCheckpoint = %d on a device a new store took over", got)
		}
		sess = s.NewSession()
		writeGen(sess, 1)
		v1 := commitAll(t, s)
		sess.Close()
		s.Close()
		if m := newestRecord(t, dev); m.Seq != 1 || m.Version != v1 {
			t.Fatalf("newest record %+v, want the new store's first seal (version %d)", m, v1)
		}
		r, err := Recover(dev, cfg, v1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		expectGen(t, r, 1)
	})
}
