package kv

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/storage"
)

// latestCheckpoint returns the version of the newest durable checkpoint on
// the device's "hlog" log — the newest record whose log range matches its
// CRC — or 0 if none is intact. A device that cannot be read fails the test.
func latestCheckpoint(t *testing.T, device storage.Device) core.Version {
	t.Helper()
	recs, err := readCheckpoints(device, "hlog")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range recs {
		var crc uint32
		err := readLog(device, "hlog", m.From, m.Boundary, func(_ int64, data []byte) {
			crc = crc32.Update(crc, crc32c, data)
		})
		if err == nil && crc == m.DataCRC {
			return m.Version
		}
		if err != nil && !errors.Is(err, errTornCheckpoint) {
			t.Fatal(err)
		}
	}
	return 0
}

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

// forEachSealSetup runs fn once per device kind, over a lossy(flaky(device))
// stack, with a fold-over store's configuration.
func forEachSealSetup(t *testing.T, fn func(t *testing.T, lossy *lossyDevice, flaky *storage.FlakyDevice, cfg Config)) {
	for _, env := range sealDevices {
		t.Run(env.name+"/fold-over", func(t *testing.T) {
			inner := env.open(t)
			defer inner.Close()
			flaky := storage.NewFlaky(inner)
			fn(t, &lossyDevice{Device: flaky}, flaky, Config{BucketCount: 1 << 8})
		})
	}
}

// commitAll checkpoints everything written so far and waits for durability,
// returning the persisted version.
func commitAll(t *testing.T, s *Store) core.Version {
	t.Helper()
	target := s.CurrentVersion()
	if err := s.BeginCommit(target); err != nil {
		t.Fatal(err)
	}
	waitPersisted(t, s, target)
	return target
}

// failSeal runs one checkpoint whose first device write fails, and waits for
// the store to give it up.
func failSeal(t *testing.T, s *Store, flaky *storage.FlakyDevice) {
	t.Helper()
	persisted := s.PersistedVersion()
	flaky.FailNextWrites(1) // one of the seal's concurrent writes
	target := s.CurrentVersion()
	if err := s.BeginCommit(target); err != nil {
		t.Fatal(err)
	}
	for s.CurrentVersion() == target || s.CurrentPhase() != PhaseRest {
		runtime.Gosched() // the failed checkpoint still shifts the version; wait it out
	}
	if s.PersistedVersion() != persisted {
		t.Fatalf("persisted %d after a failed seal, want %d", s.PersistedVersion(), persisted)
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
				flipByte(t, dev, "hlog", m.Boundary-1)
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

				if got := latestCheckpoint(t, dev); got != v1 {
					t.Fatalf("latest checkpoint = %d, want the previous seal %d", got, v1)
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
				if got := latestCheckpoint(t, dev); got != v3 {
					t.Fatalf("latest checkpoint after repair = %d, want %d", got, v3)
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
		if got := latestCheckpoint(t, dev); got != 0 {
			t.Fatalf("latest checkpoint = %d over a torn only slot", got)
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
		failSeal(t, s, flaky)
		if got := latestCheckpoint(t, dev); got != v1 {
			t.Fatalf("latest checkpoint = %d after a failed seal, want %d", got, v1)
		}

		writeGen(sess, 3)
		v3 := commitAll(t, s)
		sess.Close()
		s.Close()
		m := newestRecord(t, dev)
		if m.Seq != first.Seq+1 || m.Version != v3 {
			t.Fatalf("retry record %+v, want seq %d version %d", m, first.Seq+1, v3)
		}
		if m.From != first.Boundary {
			t.Fatalf("retry flushed from %d, want the last durable boundary %d", m.From, first.Boundary)
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
	if got, wantV := latestCheckpoint(t, dev), s.PersistedVersion(); got != wantV {
		t.Fatalf("latest checkpoint = %d, want %d", got, wantV)
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

// TestSealLeavesOnlyLogAndSlots: every seal is a fold-over of the log, so
// whatever the seals go through — a failed write, a rollback — the device
// holds the log and the two record slots and nothing else.
func TestSealLeavesOnlyLogAndSlots(t *testing.T) {
	mem := storage.NewNull()
	flaky := storage.NewFlaky(mem)
	s := NewStore(flaky, Config{BucketCount: 1 << 8})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	sealed := make(chan core.Version, 1) // seals are awaited one at a time
	s.OnPersist(func(v core.Version) { sealed <- v })
	// seal drives n seals the way the commit pump does: one BeginCommit of the
	// current version per persist notification.
	seal := func(n int) {
		for i := 0; i < n; i++ {
			writeGen(sess, i)
			if err := s.BeginCommit(s.CurrentVersion()); err != nil {
				t.Fatal(err)
			}
			<-sealed
		}
	}
	seal(8)
	v := s.PersistedVersion()
	writeGen(sess, 100)
	failSeal(t, s, flaky)
	if err := s.Restore(v); err != nil {
		t.Fatal(err)
	}
	seal(8)
	got := mem.Blobs()
	sort.Strings(got)
	if want := []string{"hlog", "hlog-ckpt-0", "hlog-ckpt-1"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("blobs %v, want %v", got, want)
	}
}

// checkpointGolden is the encoding of checkpointRecordFixture, byte for byte:
// the on-device layout every checkpoint record on a device was written in.
const checkpointGolden = "0300c4d90000000005000000000000002a0000000000000000000000000000008000000000000000" +
	"00100000000000000020000000000000efbeadde00000000020000000000000003000000000000000700000000000000" +
	"0a000000000000000c00000000000000bcf9bb9400000000"

var checkpointRecordFixture = checkpointMeta{Seq: 5, Version: 42, Begin: 128, From: 4096, Boundary: 8192,
	DataCRC: 0xDEADBEEF, Ranges: []versionRange{{3, 7}, {10, 12}}}

// withKindWord returns a copy of an encoded record with its kind word set
// and its CRC recomputed, so the kind word is the only thing wrong with it.
func withKindWord(rec []byte, kind uint64) []byte {
	out := append([]byte(nil), rec...)
	binary.LittleEndian.PutUint64(out[3*8:], kind)
	body := len(out) - 8
	binary.LittleEndian.PutUint64(out[body:], uint64(crc32.Checksum(out[:body], crc32c)))
	return out
}

// TestCheckpointRecordLayout pins the record format: encode writes the golden
// bytes, and a record whose kind word is not 0 (1 and 1|1<<8 named snapshot
// and delta-snapshot blobs, a format the store no longer has) does not
// decode, so recovery skips its slot like a torn one and never replays it as
// a log range.
func TestCheckpointRecordLayout(t *testing.T) {
	golden, err := hex.DecodeString(checkpointGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := checkpointRecordFixture.encode(); !bytes.Equal(got, golden) {
		t.Fatalf("encode:\n got %x\nwant %x", got, golden)
	}
	for _, kind := range []uint64{1, 1 << 8, 1<<8 | 1} {
		if _, ok := decodeCheckpoint(withKindWord(golden, kind)); ok {
			t.Fatalf("a record with kind word %#x decoded", kind)
		}
	}

	dev := storage.NewNull()
	cfg := Config{BucketCount: 1 << 8}
	s := NewStore(dev, cfg)
	sess := s.NewSession()
	writeGen(sess, 1)
	v1 := commitAll(t, s)
	writeGen(sess, 2)
	v2 := commitAll(t, s)
	sess.Close()
	s.Close()
	newest := ckptSlotName("hlog", newestRecord(t, dev).Seq)
	rec, err := dev.Read(newest, 0, int(dev.BlobSize(newest)))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeAll(dev, []blobWrite{{blob: newest, data: withKindWord(rec, 1)}}); err != nil {
		t.Fatal(err)
	}
	if got := latestCheckpoint(t, dev); got != v1 {
		t.Fatalf("latest checkpoint = %d, want %d from the other slot", got, v1)
	}
	if _, err := Recover(dev, cfg, v2); err == nil {
		t.Fatalf("recovered version %d from a non-zero-kind record", v2)
	}
	r, err := Recover(dev, cfg, v1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	expectGen(t, r, 1)
}

// FuzzDecodeCheckpoint: decodeCheckpoint parses whatever a slot holds, so no
// input may panic it, and a record it accepts encodes back to the bytes it
// was decoded from (bytes past the record are ignored).
func FuzzDecodeCheckpoint(f *testing.F) {
	golden, err := hex.DecodeString(checkpointGolden)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-1])
	f.Add(withKindWord(golden, 1))
	f.Add((&checkpointMeta{Seq: 1, Boundary: 64}).encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := decodeCheckpoint(data)
		if !ok {
			return
		}
		if enc := m.encode(); !bytes.HasPrefix(data, enc) {
			t.Fatalf("decoded %+v re-encodes to\n%x\nfrom\n%x", m, enc, data)
		}
	})
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
		if got := latestCheckpoint(t, dev); got != 0 {
			t.Fatalf("latest checkpoint = %d on a device a new store took over", got)
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

// TestGroupCommitCoalesces: many concurrent BeginCommit calls fold into far
// fewer checkpoint state machine runs (single-flight group commit), while
// every requested version still becomes durable.
func TestGroupCommitCoalesces(t *testing.T) {
	// A device with real write latency, so requests actually overlap an
	// in-flight checkpoint instead of each finding the machine idle.
	dev := storage.NewMemDevice("ssd", storage.LatencyProfile{WriteLatency: time.Millisecond})
	s := NewStore(dev, Config{BucketCount: 1 << 8})
	defer s.Close()

	const requests = 64
	var wg sync.WaitGroup
	var maxTarget atomic.Uint64
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := s.NewSession() // a session is not safe for concurrent use
			defer sess.Close()
			v, err := sess.Upsert([]byte("k"), []byte("v"))
			if err != nil {
				t.Error(err)
				return
			}
			for {
				cur := maxTarget.Load()
				if uint64(v) <= cur || maxTarget.CompareAndSwap(cur, uint64(v)) {
					break
				}
			}
			if err := s.BeginCommit(v); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	waitPersisted(t, s, core.Version(maxTarget.Load()))
	if got := s.Checkpoints(); got >= requests/2 {
		t.Fatalf("%d checkpoints for %d concurrent commits: not coalescing", got, requests)
	}
}

// TestOnPersistFires: the observer sees every checkpoint seal, with the
// persisted version, and is not invoked by a rollback's regression.
func TestOnPersistFires(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{BucketCount: 1 << 8})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()

	var mu sync.Mutex
	var seen []core.Version
	s.OnPersist(func(v core.Version) {
		mu.Lock()
		seen = append(seen, v)
		mu.Unlock()
	})

	sess.Upsert([]byte("k"), []byte("v"))
	v0 := commitAll(t, s)
	sess.Upsert([]byte("k"), []byte("v2"))
	v1 := commitAll(t, s)

	mu.Lock()
	got := append([]core.Version(nil), seen...)
	mu.Unlock()
	if len(got) != 2 || got[0] != v0 || got[1] != v1 {
		t.Fatalf("persist notifications %v, want [%d %d]", got, v0, v1)
	}

	if err := s.Restore(v0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	n := len(seen)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("rollback fired a persist notification (%d total)", n)
	}
}
