package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dpr/internal/storage"
)

func TestLogWriteScan(t *testing.T) {
	l := newHlog(storage.NewNull(), "log")
	var addrs []int64
	for i := 0; i < 100; i++ {
		r := l.writeRecord(nilAddress, 1, false,
			[]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("value%03d", i)), 0)
		addrs = append(addrs, r.addr)
	}
	var seen []string
	err := l.scan(0, l.tail.Load(), func(addr int64, r recordView) bool {
		seen = append(seen, string(r.key()))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Fatalf("scan found %d records, want 100", len(seen))
	}
	for i, k := range seen {
		if k != fmt.Sprintf("key%03d", i) {
			t.Fatalf("record %d: key %q", i, k)
		}
	}
	// Views resolve to the same data.
	r, ok := l.view(addrs[42])
	if !ok || string(r.value()) != "value042" {
		t.Fatalf("view(42) = %q ok=%v", r.value(), ok)
	}
}

func TestLogSlabBoundaryPadding(t *testing.T) {
	l := newHlog(storage.NewNull(), "log")
	// Fill most of the first slab, then write a record that cannot fit.
	big := make([]byte, slabSize/2)
	l.writeRecord(nilAddress, 1, false, []byte("a"), big, 0)
	l.writeRecord(nilAddress, 1, false, []byte("b"), big, 0)
	r := l.writeRecord(nilAddress, 1, false, []byte("c"), []byte("x"), 0)
	if r.addr>>slabBits != 1 {
		t.Fatalf("record c should land in slab 1, got addr %d", r.addr)
	}
	// Scanning across the padded boundary still finds all three records.
	count := 0
	if err := l.scan(0, l.tail.Load(), func(_ int64, r recordView) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("scan across padding found %d records", count)
	}
}

func TestLogFlushAndDiskRead(t *testing.T) {
	dev := storage.NewNull()
	l := newHlog(dev, "log")
	r1 := l.writeRecord(nilAddress, 3, false, []byte("k1"), []byte("v1"), 0)
	r2 := l.writeRecord(r1.addr, 4, true, []byte("k2"), nil, 0)
	boundary := l.tail.Load()
	if err := flushSync(l, boundary); err != nil {
		t.Fatal(err)
	}
	if l.flushedUntil.Load() != boundary {
		t.Fatal("flushedUntil must advance")
	}
	dr, err := l.readDisk(r1.addr)
	if err != nil {
		t.Fatal(err)
	}
	if string(dr.key) != "k1" || string(dr.value) != "v1" || dr.version() != 3 || dr.tombstone() {
		t.Fatalf("disk record mismatch: %+v", dr)
	}
	dr2, err := l.readDisk(r2.addr)
	if err != nil {
		t.Fatal(err)
	}
	if !dr2.tombstone() || dr2.prev != r1.addr || dr2.version() != 4 {
		t.Fatalf("disk tombstone mismatch: %+v", dr2)
	}
}

func TestLogEvictAndRelease(t *testing.T) {
	dev := storage.NewNull()
	l := newHlog(dev, "log")
	big := make([]byte, slabSize/4)
	for i := 0; i < 12; i++ {
		l.writeRecord(nilAddress, 1, false, []byte{byte(i)}, big, 0)
	}
	boundary := l.tail.Load()
	if err := flushSync(l, boundary); err != nil {
		t.Fatal(err)
	}
	old := l.advanceHead(2 * slabSize)
	if old != 0 || l.head.Load() != 2*slabSize {
		t.Fatalf("head advance: old=%d head=%d", old, l.head.Load())
	}
	l.releaseSlabs(0, 2*slabSize)
	if l.slab(0) != nil || l.slab(slabSize) != nil {
		t.Fatal("released slabs must be nil")
	}
	if l.slab(2*slabSize) == nil {
		t.Fatal("live slab must remain")
	}
	if live := l.tail.Load()>>slabBits - 1; l.mapped.Load() != live*slabSize {
		t.Fatalf("mapped = %d bytes, want the %d slabs above the head", l.mapped.Load(), live)
	}
	// The next slab the tail enters is a parked one, and it reads all zero
	// past what was written since: scan takes a zero header for unwritten
	// space.
	parked := map[*byte]bool{}
	for _, b := range l.free {
		parked[&(*b)[0]] = true
	}
	if len(parked) != 2 {
		t.Fatalf("%d slabs parked, want the 2 released", len(parked))
	}
	for idx := l.tail.Load() >> slabBits; l.tail.Load()>>slabBits == idx; {
		l.writeRecord(nilAddress, 2, false, []byte("z"), []byte("reused"), 0)
	}
	tail := l.tail.Load()
	reused := l.slab(tail)
	if !parked[&reused[0]] {
		t.Fatal("the tail's new slab is not a parked one")
	}
	if n := bytes.Count(reused[tail&slabMask:], []byte{0}); n != slabSize-int(tail&slabMask) {
		t.Fatalf("reused slab: %d nonzero bytes past what was written since", slabSize-int(tail&slabMask)-n)
	}
	var keys []string
	if err := l.scan(tail&^slabMask, (tail|slabMask)+1, func(_ int64, r recordView) bool {
		keys = append(keys, string(r.key())+"="+string(r.value()))
		return true
	}); err != nil || len(keys) != 1 || keys[0] != "z=reused" {
		t.Fatalf("scan of the reused slab: %q, %v; want the one record written since", keys, err)
	}
	// advanceHead is clamped to flushedUntil.
	l.advanceHead(boundary + slabSize)
	if l.head.Load() > l.flushedUntil.Load() {
		t.Fatal("head must never pass flushedUntil")
	}
}

// TestStoreChurnReturnsMappings: a store's slabs, live and parked, are
// unmapped once the store is closed and dropped. 200 stores are opened, filled
// past their first slab, closed and dropped; once the collector has run their
// finalizers the process holds as many slabs as before. A teardown that leaks
// mappings fails it.
func TestStoreChurnReturnsMappings(t *testing.T) {
	collect := func() {
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // finalizers run on their own goroutine
	}
	// What earlier tests dropped is unmapped first, so that it cannot make up
	// for a leak below.
	for i := 0; i < 3; i++ {
		collect()
	}
	base := liveSlabs.Load()
	val := make([]byte, 64<<10)
	for i := 0; i < 200; i++ {
		s := NewStore(storage.NewNull(), Config{BucketCount: 64})
		sess := s.NewSession()
		for k := 0; k < 20; k++ {
			if _, err := sess.Upsert([]byte{byte(k)}, val); err != nil {
				t.Fatal(err)
			}
		}
		if s.TailAddress() <= slabSize {
			t.Fatalf("tail %d: the store never left its first slab", s.TailAddress())
		}
		sess.Close()
		s.Close()
		if i%50 == 49 {
			runtime.GC() // keeps what is dropped but not yet unmapped small
		}
	}
	for deadline := time.Now().Add(10 * time.Second); liveSlabs.Load() > base; collect() {
		if time.Now().After(deadline) {
			t.Fatalf("%d slabs still mapped after 200 stores were closed and dropped, %d before", liveSlabs.Load(), base)
		}
	}
}

func TestLogConcurrentAllocation(t *testing.T) {
	l := newHlog(storage.NewNull(), "log")
	const goroutines = 8
	const recordsEach = 500
	var wg sync.WaitGroup
	addrs := make([][]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < recordsEach; i++ {
				r := l.writeRecord(nilAddress, 1, false,
					[]byte(fmt.Sprintf("g%dk%d", g, i)), bytes.Repeat([]byte{byte(g)}, 100), 0)
				addrs[g] = append(addrs[g], r.addr)
			}
		}(g)
	}
	wg.Wait()
	// All addresses distinct and records intact.
	seen := make(map[int64]bool)
	for g := range addrs {
		for i, a := range addrs[g] {
			if seen[a] {
				t.Fatalf("duplicate address %d", a)
			}
			seen[a] = true
			r, ok := l.view(a)
			if !ok || string(r.key()) != fmt.Sprintf("g%dk%d", g, i) {
				t.Fatalf("record g%d/%d corrupted", g, i)
			}
		}
	}
	total := 0
	l.scan(0, l.tail.Load(), func(int64, recordView) bool { total++; return true })
	if total != goroutines*recordsEach {
		t.Fatalf("scan found %d, want %d", total, goroutines*recordsEach)
	}
}

// Property: round-tripping random records through the log (memory and disk)
// preserves keys, values, versions, and flags.
func TestLogRecordRoundTripProperty(t *testing.T) {
	dev := storage.NewNull()
	l := newHlog(dev, "log")
	type spec struct {
		key, val []byte
		version  uint64
		tomb     bool
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var specs []spec
		var views []recordView
		for i := 0; i < 20; i++ {
			k := make([]byte, rng.Intn(32)+1)
			v := make([]byte, rng.Intn(256))
			rng.Read(k)
			rng.Read(v)
			sp := spec{key: k, val: v, version: uint64(rng.Intn(1000) + 1), tomb: rng.Intn(4) == 0}
			r := l.writeRecord(nilAddress, sp.version, sp.tomb, sp.key, sp.val, 0)
			specs = append(specs, sp)
			views = append(views, r)
		}
		for i, sp := range specs {
			r := views[i]
			if !bytes.Equal(r.key(), sp.key) || !bytes.Equal(r.value(), sp.val) ||
				r.version() != sp.version || r.tombstone() != sp.tomb {
				return false
			}
		}
		// Flush and re-read from the device.
		boundary := l.tail.Load()
		if flushSync(l, boundary) != nil {
			return false
		}
		for i, sp := range specs {
			dr, err := l.readDisk(views[i].addr)
			if err != nil {
				return false
			}
			if !bytes.Equal(dr.key, sp.key) || !bytes.Equal(dr.value, sp.val) ||
				dr.version() != sp.version || dr.tombstone() != sp.tomb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a random mix of upserts and deletes across sessions matches a
// model map, across a checkpoint boundary.
func TestStoreModelProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(storage.NewNull(), Config{BucketCount: 64})
		defer s.Close()
		sess := s.NewSession()
		defer sess.Close()
		model := make(map[string]string)
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(40))
			switch rng.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("v%d", rng.Intn(1000))
				if _, err := sess.Upsert([]byte(k), []byte(v)); err != nil {
					return false
				}
				model[k] = v
			case 2:
				if _, err := sess.Delete([]byte(k)); err != nil {
					return false
				}
				delete(model, k)
			}
			if i == 150 {
				s.BeginCommit(s.CurrentVersion())
			}
		}
		for k, want := range model {
			got, status, _ := sess.Read([]byte(k), 0)
			if status != StatusOK || string(got) != want {
				return false
			}
		}
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("k%d", i)
			if _, ok := model[k]; !ok {
				if _, status, _ := sess.Read([]byte(k), 0); status != StatusNotFound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// flushSync flushes [flushedUntil, boundary) the way a fold-over seal does,
// minus the checkpoint record.
func flushSync(l *hlog, boundary int64) error {
	_, chunks, err := l.copyOut(boundary)
	if err == nil {
		err = writeAll(l.device, chunks)
	}
	if err == nil {
		l.advanceFlushed(boundary)
	}
	return err
}
