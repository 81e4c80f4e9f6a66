// Package stats provides the measurement primitives the benchmark harness
// uses to regenerate the paper's figures: a fixed-memory log-bucketed
// latency histogram (percentiles for Figures 12/13/18) and a time-series
// throughput recorder (the 250ms-granularity recovery timeline of
// Figure 16).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of a Histogram: 64 powers of two of
// microseconds, 8 sub-buckets each.
const NumBuckets = 512

// Histogram is a concurrent log-bucketed latency histogram covering every
// duration from 1µs up. A bucket spans 1/8 of its power of two and quantiles
// report the bucket's lower bound, so they can read up to 12.5% low.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // microseconds
	max     atomic.Uint64 // microseconds
}

// bucketOf maps a duration to a bucket: 8 sub-buckets per power of two of
// microseconds.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	exp := 63 - bits.LeadingZeros64(uint64(us))
	frac := 0
	if exp >= 3 {
		frac = int((us >> (uint(exp) - 3)) & 7)
	}
	b := exp*8 + frac
	if b >= len((&Histogram{}).buckets) {
		b = len((&Histogram{}).buckets) - 1
	}
	return b
}

func bucketLower(b int) time.Duration {
	exp := b / 8
	frac := b % 8
	us := int64(1) << uint(exp)
	if exp >= 3 {
		us += int64(frac) << (uint(exp) - 3)
	}
	return time.Duration(us) * time.Microsecond
}

// BucketLower returns the inclusive lower bound of bucket i.
func BucketLower(i int) time.Duration { return bucketLower(i) }

// BucketUpper returns the exclusive upper bound of bucket i (the lower bound
// of bucket i+1); the last bucket is unbounded and reported as the lower
// bound of a hypothetical next bucket.
func BucketUpper(i int) time.Duration { return bucketLower(i + 1) }

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	us := uint64(d.Microseconds())
	h.sum.Add(us)
	for {
		cur := h.max.Load()
		if us <= cur || h.max.CompareAndSwap(cur, us) {
			break
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the average sample.
func (h *Histogram) Mean() time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return time.Duration(h.sum.Load()/c) * time.Microsecond
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.max.Load()) * time.Microsecond
}

// HistogramSnapshot is a point-in-time copy of a Histogram's state, the
// shared currency of the bench harness (percentiles, CDFs) and the obs
// exposition path (Prometheus histograms, merged per-worker views). Sum and
// Max are in microseconds, like the histogram's internal accounting.
type HistogramSnapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Snapshot copies the histogram's current state. Concurrent recording may
// leave Count and the bucket sum transiently off by in-flight samples; for
// exposition, derive totals from Buckets so bucket counts stay internally
// consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for b := range h.buckets {
		s.Buckets[b] = h.buckets[b].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Merge folds a snapshot into h (per-bucket addition, max of maxes), so
// per-client or per-worker histograms can be aggregated into one view.
func (h *Histogram) Merge(s *HistogramSnapshot) {
	for b := range s.Buckets {
		if s.Buckets[b] > 0 {
			h.buckets[b].Add(s.Buckets[b])
		}
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	for {
		cur := h.max.Load()
		if s.Max <= cur || h.max.CompareAndSwap(cur, s.Max) {
			break
		}
	}
}

// Percentile returns the p'th percentile of the snapshot (0 < p <= 100).
func (s *HistogramSnapshot) Percentile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(float64(s.Count) * p / 100))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b := range s.Buckets {
		cum += s.Buckets[b]
		if cum >= target {
			return bucketLower(b)
		}
	}
	return time.Duration(s.Max) * time.Microsecond
}

// Percentile returns the p'th percentile (0 < p <= 100).
func (h *Histogram) Percentile(p float64) time.Duration {
	s := h.Snapshot()
	return s.Percentile(p)
}

// Summary renders mean/p50/p99/p999/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v p99.9=%v max=%v",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(90),
		h.Percentile(99), h.Percentile(99.9), h.Max())
}

// Distribution returns (lowerBound, count) pairs for non-empty buckets, for
// rendering latency CDFs like Figures 12 and 18.
func (h *Histogram) Distribution() []BucketCount {
	s := h.Snapshot()
	return s.Distribution()
}

// Distribution returns (lowerBound, count) pairs for non-empty buckets.
func (s *HistogramSnapshot) Distribution() []BucketCount {
	var out []BucketCount
	for b := range s.Buckets {
		if c := s.Buckets[b]; c > 0 {
			out = append(out, BucketCount{Lower: bucketLower(b), Count: c})
		}
	}
	return out
}

// BucketCount is one histogram bucket.
type BucketCount struct {
	Lower time.Duration
	Count uint64
}

// CDF returns (latency, cumulative fraction) points.
func (h *Histogram) CDF() []CDFPoint {
	dist := h.Distribution()
	total := h.Count()
	var out []CDFPoint
	var cum uint64
	for _, b := range dist {
		cum += b.Count
		out = append(out, CDFPoint{Latency: b.Lower, Fraction: float64(cum) / float64(total)})
	}
	return out
}

// CDFPoint is one point of a latency CDF.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// Counter is a concurrent event counter with snapshot support.
type Counter struct{ n atomic.Uint64 }

// Add increments by delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.n.Load() }

// TimeSeries samples a set of counters at a fixed interval, producing the
// throughput-over-time traces of Figure 16.
type TimeSeries struct {
	interval time.Duration
	names    []string
	sources  []*Counter

	mu      sync.Mutex
	samples [][]uint64 // per tick, per source: cumulative value
	start   time.Time

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewTimeSeries starts sampling the named counters every interval.
func NewTimeSeries(interval time.Duration, names []string, sources []*Counter) *TimeSeries {
	ts := &TimeSeries{
		interval: interval,
		names:    names,
		sources:  sources,
		start:    time.Now(),
		stop:     make(chan struct{}),
	}
	ts.wg.Add(1)
	go ts.loop()
	return ts
}

func (ts *TimeSeries) loop() {
	defer ts.wg.Done()
	t := time.NewTicker(ts.interval)
	defer t.Stop()
	for {
		select {
		case <-ts.stop:
			return
		case <-t.C:
			row := make([]uint64, len(ts.sources))
			for i, c := range ts.sources {
				row[i] = c.Load()
			}
			ts.mu.Lock()
			ts.samples = append(ts.samples, row)
			ts.mu.Unlock()
		}
	}
}

// Stop halts sampling.
func (ts *TimeSeries) Stop() {
	ts.stopOnce.Do(func() { close(ts.stop) })
	ts.wg.Wait()
}

// Row is one tick of per-source rates.
type Row struct {
	At    time.Duration
	Rates []float64 // events/second in that tick, per source
}

// Rates converts cumulative samples into per-tick rates.
func (ts *TimeSeries) Rates() []Row {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]Row, 0, len(ts.samples))
	prev := make([]uint64, len(ts.sources))
	secs := ts.interval.Seconds()
	for i, row := range ts.samples {
		rates := make([]float64, len(row))
		for j, v := range row {
			rates[j] = float64(v-prev[j]) / secs
			prev[j] = v
		}
		out = append(out, Row{At: time.Duration(i+1) * ts.interval, Rates: rates})
	}
	return out
}

// Render prints the series as an aligned table (one line per tick).
func (ts *TimeSeries) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%10s", "t")
	for _, n := range ts.names {
		fmt.Fprintf(&sb, " %14s", n)
	}
	sb.WriteByte('\n')
	for _, row := range ts.Rates() {
		fmt.Fprintf(&sb, "%10s", row.At.Truncate(time.Millisecond))
		for _, r := range row.Rates {
			fmt.Fprintf(&sb, " %14.0f", r)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SortDurations is a helper for exact small-sample percentiles in tests.
func SortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
