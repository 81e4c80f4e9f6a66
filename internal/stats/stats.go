// Package stats provides the measurement primitives the benchmark harness
// uses to regenerate the paper's figures: a fixed-memory log-bucketed
// latency histogram (percentiles for Figures 12/13/18), an exact-quantile
// sample recorder (commit latency), and a time-series throughput recorder
// (the recovery timeline of Figure 16).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// shared currency of the bench harness (percentiles) and the obs exposition
// path (Prometheus histograms). Sum and Max are in microseconds, like the
// histogram's internal accounting.
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

// Percentile returns the p'th percentile of the snapshot (0 < p <= 100).
func (s *HistogramSnapshot) Percentile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := rank(s.Count, p)
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

// rank is the nearest-rank rule both quantile recorders use: the 1-based rank
// of the p'th percentile among n samples, at least 1.
func rank(n uint64, p float64) uint64 {
	return max(1, uint64(math.Ceil(float64(n)*p/100)))
}

// Samples keeps every recorded duration, for exact quantiles where the
// histogram's ~12.5% buckets are too coarse: commit latencies dominated by
// one cadence all land in one bucket, so two configurations 10x apart would
// print the same bucket floor. Keep it for sparse samples; memory grows with
// each one.
type Samples struct {
	mu sync.Mutex
	ds []time.Duration
}

// Record appends one sample.
func (s *Samples) Record(d time.Duration) {
	s.mu.Lock()
	s.ds = append(s.ds, d)
	s.mu.Unlock()
}

// N returns the sample count.
func (s *Samples) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ds)
}

// Quantile returns the nearest-rank p'th percentile (0 < p <= 100) of the
// recorded samples, or 0 with none.
func (s *Samples) Quantile(p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ds) == 0 {
		return 0
	}
	slices.Sort(s.ds)
	return s.ds[min(rank(uint64(len(s.ds)), p), uint64(len(s.ds)))-1]
}

// String renders the quantile summary on one line.
func (s *Samples) String() string {
	return fmt.Sprintf("p50=%v p90=%v p99=%v max=%v (n=%d)",
		s.Quantile(50).Truncate(time.Microsecond),
		s.Quantile(90).Truncate(time.Microsecond),
		s.Quantile(99).Truncate(time.Microsecond),
		s.Quantile(100).Truncate(time.Microsecond), s.N())
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
	samples [][]uint64 // at the start and per tick, per source: cumulative value

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewTimeSeries starts sampling the named counters every interval. What
// they counted before it started is in no tick.
func NewTimeSeries(interval time.Duration, names []string, sources []*Counter) *TimeSeries {
	ts := &TimeSeries{
		interval: interval,
		names:    names,
		sources:  sources,
		stop:     make(chan struct{}),
	}
	ts.samples = [][]uint64{ts.read()}
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
			row := ts.read()
			ts.mu.Lock()
			ts.samples = append(ts.samples, row)
			ts.mu.Unlock()
		}
	}
}

func (ts *TimeSeries) read() []uint64 {
	row := make([]uint64, len(ts.sources))
	for i, c := range ts.sources {
		row[i] = c.Load()
	}
	return row
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
	out := make([]Row, 0, len(ts.samples)-1)
	prev := slices.Clone(ts.samples[0])
	secs := ts.interval.Seconds()
	for i, row := range ts.samples[1:] {
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
