package main

import (
	"math"
	"sort"
	"sync/atomic"
)

// samples is a preallocated store of raw latency samples (nanoseconds).
// Quantiles are exact nearest-rank over the raw values, not bucketed:
// stats.Histogram's buckets are ~12.5% wide, wider than the bounds this
// benchmark has to resolve. add is safe for concurrent use (completion
// callbacks run on the client's reader goroutines); samples past the
// preallocated capacity are counted in dropped, never appended.
type samples struct {
	v       []int64
	n       atomic.Int64
	dropped atomic.Int64
}

func newSamples(capacity int) *samples {
	return &samples{v: make([]int64, capacity)}
}

func (s *samples) add(ns int64) {
	i := s.n.Add(1) - 1
	if i >= int64(len(s.v)) {
		s.dropped.Add(1)
		return
	}
	s.v[i] = ns
}

// sorted returns the recorded samples in ascending order. Call once every
// writer has stopped.
func (s *samples) sorted() []int64 {
	n := s.n.Load()
	if n > int64(len(s.v)) {
		n = int64(len(s.v))
	}
	out := s.v[:n]
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the exact nearest-rank p-quantile (p in (0,100]) of an
// ascending slice: the value at 1-based rank ceil(p/100 * n). 0 when empty.
func quantile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailLadder is the set of tail percentiles a report may name.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// tailPercentile returns the highest ladder percentile with at least ten
// samples beyond it (n*(1-p) >= 10), or 0 when even p90 has fewer: below
// that a tail is one or two outliers, not a percentile.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		// Integer form of n*(100-p)/100 >= 10, exact for the ladder's
		// two-decimal percentiles.
		if int64(n)*int64(math.Round((100-p)*100)) >= 10*100*100 {
			best = p
		}
	}
	return best
}

// p99OrBest is the quantile reported under a "p99" metric name: p99 when the
// sample supports it, else the highest percentile it does support (the median
// when it supports none).
func p99OrBest(sorted []int64) int64 {
	p := tailPercentile(len(sorted))
	switch {
	case p == 0:
		return quantile(sorted, 50)
	case p > 99:
		p = 99
	}
	return quantile(sorted, p)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(ns float64) float64 { return ns / 1e6 }
