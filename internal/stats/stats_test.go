package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	p50 := h.Percentile(50)
	if p50 < 40*time.Millisecond || p50 > 60*time.Millisecond {
		t.Fatalf("p50 = %v, want ~50ms", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 90*time.Millisecond || p99 > 105*time.Millisecond {
		t.Fatalf("p99 = %v, want ~99ms", p99)
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("max %v", h.Max())
	}
	mean := h.Mean()
	if mean < 45*time.Millisecond || mean > 55*time.Millisecond {
		t.Fatalf("mean %v, want ~50.5ms", mean)
	}
	if !strings.Contains(h.Summary(), "n=100") {
		t.Fatalf("summary: %s", h.Summary())
	}
}

func TestHistogramRelativeError(t *testing.T) {
	var h Histogram
	const sample = 7 * time.Millisecond
	h.Record(sample)
	got := h.Percentile(100)
	err := math.Abs(float64(got-sample)) / float64(sample)
	if err > 0.15 {
		t.Fatalf("bucket error %f too large (got %v for %v)", err, got, sample)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Record(time.Duration(i%1000+1) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("count %d", h.Count())
	}
}

func TestBucketMonotonic(t *testing.T) {
	prev := -1
	for us := int64(1); us < 1e9; us *= 3 {
		b := bucketOf(time.Duration(us) * time.Microsecond)
		if b < prev {
			t.Fatalf("bucket not monotone at %dus: %d < %d", us, b, prev)
		}
		prev = b
	}
}

// Property: percentile is monotone in p and bounded by max.
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		for _, s := range samples {
			h.Record(time.Duration(s%1e6+1) * time.Microsecond)
		}
		prev := time.Duration(0)
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Percentile(100) <= h.Max()+h.Max()/4
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
	for i, b := range s.Buckets {
		if b != 0 {
			t.Fatalf("bucket %d nonzero in empty snapshot", i)
		}
	}
	if s.Percentile(50) != 0 {
		t.Fatal("empty snapshot percentile must be 0")
	}
}

func TestSnapshotMatchesHistogram(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("snapshot count %d", s.Count)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	for _, p := range []float64{1, 50, 99, 100} {
		if got, want := s.Percentile(p), h.Percentile(p); got != want {
			t.Fatalf("p%g: snapshot %v != histogram %v", p, got, want)
		}
	}
}

// Bucket boundaries: a sample exactly on a bucket's lower bound lands in that
// bucket, and bucketLower/BucketUpper tile the range with no gaps.
func TestSnapshotBucketBoundaries(t *testing.T) {
	for b := 0; b < NumBuckets-1; b++ {
		if BucketUpper(b) != bucketLower(b+1) {
			t.Fatalf("gap between bucket %d upper (%v) and %d lower (%v)",
				b, BucketUpper(b), b+1, bucketLower(b+1))
		}
	}
	// Sub-buckets only become distinct at exp >= 3 (8µs); below that the
	// fractional lower bounds collapse onto the power of two, so test bucket
	// 0 and distinct buckets from 8µs upward.
	for _, b := range []int{0, 24, 31, 32, 100, 255} {
		var h Histogram
		h.Record(bucketLower(b))
		s := h.Snapshot()
		if s.Buckets[b] != 1 {
			got := -1
			for i, c := range s.Buckets {
				if c != 0 {
					got = i
				}
			}
			t.Fatalf("sample at lower bound of bucket %d (%v) landed in bucket %d",
				b, bucketLower(b), got)
		}
	}
}

// TestSamplesQuantile pins the nearest-rank rule, the one the histogram's
// Percentile uses: the p'th percentile of n samples is the ceil(p/100·n)'th
// smallest.
func TestSamplesQuantile(t *testing.T) {
	var s Samples
	if s.Quantile(50) != 0 {
		t.Fatal("no samples must report 0")
	}
	for i := 10; i >= 1; i-- {
		s.Record(time.Duration(i))
	}
	for p, want := range map[float64]time.Duration{1: 1, 10: 1, 11: 2, 50: 5, 90: 9, 95: 10, 99: 10, 100: 10} {
		if got := s.Quantile(p); got != want {
			t.Errorf("p%g of 1..10 = %d, want %d", p, got, want)
		}
	}
	if s.N() != 10 {
		t.Fatalf("n = %d", s.N())
	}
}

func TestTimeSeries(t *testing.T) {
	var ops Counter
	ops.Add(1000) // before the series starts: in no tick
	ts := NewTimeSeries(10*time.Millisecond, []string{"ops"}, []*Counter{&ops})
	for i := 0; i < 5; i++ {
		ops.Add(100)
		time.Sleep(12 * time.Millisecond)
	}
	ts.Stop()
	rows := ts.Rates()
	if len(rows) < 3 {
		t.Fatalf("expected >=3 samples, got %d", len(rows))
	}
	var total float64
	for _, r := range rows {
		total += r.Rates[0] * 0.01
	}
	if total < 300 || total > 500 {
		t.Fatalf("integrated rate %f, want ~500", total)
	}
	if !strings.Contains(ts.Render(), "ops") {
		t.Fatal("render must include series name")
	}
}

// TestBucketOfBoundaries pins bucketOf at 0, 1 ns, the largest duration, and on
// both sides of every bucket boundary, against the bit-by-bit scan for the
// leading one that it used before math/bits.
func TestBucketOfBoundaries(t *testing.T) {
	ref := func(d time.Duration) int {
		us := max(d.Microseconds(), 1)
		exp := 0
		for i := 63; i >= 0; i-- {
			if uint64(us)&(1<<uint(i)) != 0 {
				exp = i
				break
			}
		}
		b := exp * 8
		if exp >= 3 {
			b += int(us>>(uint(exp)-3)) & 7
		}
		return min(b, NumBuckets-1)
	}
	for d, want := range map[time.Duration]int{
		0: 0, 1: 0, time.Microsecond: 0, 2 * time.Microsecond: 8, 7 * time.Microsecond: 16,
		8 * time.Microsecond: 24, 9 * time.Microsecond: 25, 15 * time.Microsecond: 31, 16 * time.Microsecond: 32,
		17 * time.Microsecond: 32, 18 * time.Microsecond: 33, time.Second: 159, math.MaxInt64: 424,
	} {
		if got := bucketOf(d); got != want || ref(d) != want {
			t.Errorf("bucketOf(%v) = %d (bit scan: %d), want %d", d, got, ref(d), want)
		}
	}
	for b := 0; b < NumBuckets; b++ {
		lower := bucketLower(b)
		if lower <= 0 {
			break // wrapped: beyond what a Duration holds
		}
		for _, d := range []time.Duration{lower - time.Microsecond, lower - 1, lower, lower + 1, lower + time.Microsecond} {
			if got, want := bucketOf(d), ref(d); got != want {
				t.Fatalf("bucketOf(%v) = %d at the boundary of bucket %d, want %d", d, got, b, want)
			}
		}
		if b%8 == 0 || b >= 24 { // below 8 µs a power of two has one bucket, the first of its eight
			if got := bucketOf(lower); got != b {
				t.Fatalf("bucketOf(%v) = %d, want %d: it is that bucket's lower bound", lower, got, b)
			}
		}
	}
}
