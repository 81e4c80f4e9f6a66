package storage

import (
	"bytes"
	"errors"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMemDeviceReadWrite(t *testing.T) {
	d := NewNull()
	defer d.Close()
	if err := d.Write("log", 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := d.Write("log", 5, []byte(" world")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read("log", 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("got %q", got)
	}
	if d.BlobSize("log") != 11 {
		t.Fatalf("size %d", d.BlobSize("log"))
	}
}

func TestMemDeviceSparseWrite(t *testing.T) {
	d := NewNull()
	defer d.Close()
	if err := d.Write("b", 100, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read("b", 0, 101)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[100] != 0xFF {
		t.Fatal("hole must read as zeros")
	}
}

func TestMemDeviceErrors(t *testing.T) {
	d := NewNull()
	defer d.Close()
	if _, err := d.Read("missing", 0, 1); !errors.Is(err, ErrBlobNotFound) {
		t.Fatalf("expected ErrBlobNotFound, got %v", err)
	}
	if err := d.Write("b", 0, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read("b", 1, 5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("expected ErrOutOfRange, got %v", err)
	}
	if err := d.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read("b", 0, 1); !errors.Is(err, ErrBlobNotFound) {
		t.Fatal("blob should be gone after delete")
	}
}

func TestMemDeviceAsyncCompletion(t *testing.T) {
	d := NewMemDevice("slow", LatencyProfile{WriteLatency: 10 * time.Millisecond})
	defer d.Close()
	start := time.Now()
	ch := make(chan error, 1)
	d.WriteAsync("x", 0, []byte("data"), func(err error) { ch <- err })
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Fatalf("latency model not applied: %v", elapsed)
	}
}

func TestMemDeviceConcurrentWriters(t *testing.T) {
	d := NewNull()
	defer d.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(i)}, 64)
			if err := d.Write("blob", int64(i)*64, buf); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 16; i++ {
		got, err := d.Read("blob", int64(i)*64, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b != byte(i) {
				t.Fatalf("chunk %d corrupted", i)
			}
		}
	}
}

// A write to a closed device fails like any other completion: on a goroutine
// that is not the caller's. The channel is unbuffered, so a done called on
// the caller's stack would block the test on itself.
func TestWriteAfterClose(t *testing.T) {
	file, err := NewFileDevice(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Device{NewNull(), NewLocalSSD(), NewSink("s", LocalSSDProfile), file} {
		d.Close()
		ch := make(chan error)
		d.WriteAsync("x", 0, []byte("y"), func(err error) { ch <- err })
		if err := <-ch; err == nil {
			t.Fatalf("%s: write after close must fail", d.Name())
		}
	}
}

// The local-SSD model on an idle process: a completion never arrives before
// the profile's 100 µs (strict), and the median arrives within 180 µs — a
// bare runtime timer reads 0.2-1.1 ms here.
func TestLocalSSDCompletesOnTime(t *testing.T) {
	for _, d := range []Device{NewLocalSSD(), NewSink("local-ssd", LocalSSDProfile)} {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			defer d.Close()
			floor := LocalSSDProfile.writeDelay(8)
			var median time.Duration
			for attempt := 0; attempt < 3; attempt++ { // the upper bound may retry, as in libdpr's pump tests
				took := make([]time.Duration, 200)
				done := make(chan time.Time)
				for i := range took {
					start := time.Now()
					d.WriteAsync("b", int64(i)*8, make([]byte, 8), func(error) { done <- time.Now() })
					if took[i] = (<-done).Sub(start); took[i] < floor {
						t.Fatalf("write %d completed after %v, before the profile's %v", i, took[i], floor)
					}
				}
				sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
				if median = took[len(took)/2]; median <= 180*time.Microsecond {
					t.Logf("median completion %v", median)
					return
				}
			}
			t.Errorf("median completion %v in the best of three attempts, want <= 180µs", median)
		})
	}
}

func TestLatencyProfileDelay(t *testing.T) {
	p := LatencyProfile{WriteLatency: time.Millisecond, BytesPerSecond: 1 << 20}
	d := p.writeDelay(1 << 20)
	if d < time.Second || d > time.Second+2*time.Millisecond {
		t.Fatalf("1MiB at 1MiB/s should take ~1s+1ms, got %v", d)
	}
	if NullProfile.writeDelay(1<<30) != 0 {
		t.Fatal("null profile must be instant")
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := NewFileDevice(dir)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan error, 1)
	d.WriteAsync("seg/0", 0, []byte("persisted"), func(err error) { ch <- err })
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	got, err := d.Read("seg/0", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persisted" {
		t.Fatalf("got %q", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: data must survive.
	d2, err := NewFileDevice(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err = d2.Read("seg/0", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persisted" {
		t.Fatal("data must survive device reopen")
	}
	if d2.BlobSize("seg/0") != 9 {
		t.Fatalf("size %d", d2.BlobSize("seg/0"))
	}
	if _, err := d2.Read("absent", 0, 1); !errors.Is(err, ErrBlobNotFound) {
		t.Fatalf("expected ErrBlobNotFound, got %v", err)
	}
}

func TestFileDeviceDelete(t *testing.T) {
	d, err := NewFileDevice(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ch := make(chan error, 1)
	d.WriteAsync("x", 0, []byte("1"), func(err error) { ch <- err })
	<-ch
	if err := d.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("x"); err != nil {
		t.Fatal("double delete should be a no-op")
	}
}

// Property: any sequence of writes then reads round-trips on both devices.
func TestDeviceRoundTripProperty(t *testing.T) {
	mem := NewNull()
	defer mem.Close()
	file, err := NewFileDevice(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	prop := func(chunks [][]byte) bool {
		if len(chunks) > 8 {
			chunks = chunks[:8]
		}
		for _, d := range []Device{mem, file} {
			blob := "prop"
			offset := int64(0)
			for _, c := range chunks {
				if len(c) == 0 {
					continue
				}
				ch := make(chan error, 1)
				d.WriteAsync(blob, offset, c, func(err error) { ch <- err })
				if err := <-ch; err != nil {
					return false
				}
				got, err := d.Read(blob, offset, len(c))
				if err != nil || !bytes.Equal(got, c) {
					return false
				}
				offset += int64(len(c))
			}
			_ = d.Delete(blob)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
