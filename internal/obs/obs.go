// Package obs is the always-on observability subsystem of the serving
// stack: a registry of allocation-free instruments (atomic counters and
// gauges, log-bucketed histograms shared with the bench harness via
// stats.Histogram), a lock-free ring buffer of version-lifecycle trace
// events, and a per-process HTTP introspection server exposing Prometheus
// text exposition on /metrics, a JSON DPR snapshot on /debug/dpr, and
// net/http/pprof.
//
// Design constraints, in order:
//
//  1. Recording on the batch hot path must cost a few atomic operations and
//     zero allocations — the 0 allocs/op serving-path guarantee must hold
//     with instrumentation enabled (there is no "disabled" mode to hide
//     behind; observability is always on).
//  2. Scraping may lock and allocate freely; it runs at human cadence.
//  3. Stdlib only.
//
// Naming follows Prometheus conventions: a `dpr_` prefix, `_total` suffix
// on counters, `_seconds` on time-valued series, and a `worker` label keyed
// by the DPR worker id. Instruments are get-or-create: re-registering the
// same (name, labels) returns the existing instrument, and re-registering a
// GaugeFunc rebinds its callback — so a restarted worker (same id, new
// process state) transparently takes over its series.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/stats"
)

// Label is one metric dimension, e.g. {worker="3"}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// renderLabels produces the canonical `{k="v",...}` suffix (empty string for
// no labels), with label values escaped per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing event counter. Add/Inc are a single
// atomic add.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterFunc is a counter read at scrape time from a callback — a total the
// component already keeps in pieces (per-lane counters), so the hot path pays
// for the pieces only. The callback must be monotone.
type CounterFunc struct {
	fn atomic.Pointer[func() uint64]
}

// Gauge is a settable instantaneous value. Set/Add are a single atomic op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFunc is a gauge computed at scrape time by a callback; recording
// costs nothing because there is no recording — the callback reads state the
// component maintains anyway (an atomic version counter, a cut snapshot).
// Rebind swaps the callback, which is how a restarted worker re-takes its
// series.
type GaugeFunc struct {
	fn atomic.Pointer[func() float64]
}

// Rebind replaces the callback.
func (g *GaugeFunc) Rebind(fn func() float64) { g.fn.Store(&fn) }

// Value evaluates the callback (0 if unbound).
func (g *GaugeFunc) Value() float64 {
	if p := g.fn.Load(); p != nil {
		return (*p)()
	}
	return 0
}

// Histogram wraps the bench harness's log-bucketed stats.Histogram for
// Prometheus exposition. Observe is allocation-free (a few atomic ops).
// Time-valued histograms (seconds=true) expose bucket bounds in seconds;
// unit-less ones (batch sizes) expose the raw value.
type Histogram struct {
	h       stats.Histogram
	seconds bool
}

// Observe records a duration sample.
func (h *Histogram) Observe(d time.Duration) { h.h.Record(d) }

// ObserveValue records a unit-less sample (stored as microsecond ticks so
// the log-bucket math is shared with durations).
func (h *Histogram) ObserveValue(n uint64) {
	h.h.Record(time.Duration(n) * time.Microsecond)
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.h.Count() }

// Snapshot exposes the underlying histogram snapshot.
func (h *Histogram) Snapshot() stats.HistogramSnapshot { return h.h.Snapshot() }

// Kind classifies a metric family for the TYPE line.
type Kind uint8

// Family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one labeled instrument within a family.
type series struct {
	labels string // pre-rendered `{...}` suffix
	inst   any    // *Counter | *CounterFunc | *Gauge | *GaugeFunc | *Histogram
}

// family groups series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series []*series
	byKey  map[string]*series
}

// Registry holds instruments and renders them in Prometheus text exposition
// format. Instrument handles are obtained once at component startup; the
// registry is never touched on the hot path.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry; components register here unless
// explicitly configured otherwise, which is what makes observability
// "always on" without any wiring in the common case.
var Default = NewRegistry()

// getOrCreate returns the series for (name, labels), creating family and
// series via mk on first registration. Panics on a kind clash — that is a
// programming error, not a runtime condition.
func (r *Registry) getOrCreate(name, help string, kind Kind, labels []Label, mk func() any) any {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	if s, ok := f.byKey[key]; ok {
		return s.inst
	}
	s := &series{labels: key, inst: mk()}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s.inst
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.getOrCreate(name, help, KindCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// CounterFunc registers a callback-backed counter; like GaugeFunc, registering
// an existing series rebinds it.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	c := &CounterFunc{} // bound before a scrape can find it
	c.fn.Store(&fn)
	r.getOrCreate(name, help, KindCounter, labels, func() any { return c }).(*CounterFunc).fn.Store(&fn)
}

// Gauge registers (or finds) a settable gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.getOrCreate(name, help, KindGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a callback-backed gauge; if the series already exists
// the callback is rebound, so a restarted component takes over its series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) *GaugeFunc {
	g := r.getOrCreate(name, help, KindGauge, labels, func() any { return &GaugeFunc{} }).(*GaugeFunc)
	g.Rebind(fn)
	return g
}

// Histogram registers (or finds) a time-valued histogram (bounds exposed in
// seconds).
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.getOrCreate(name, help, KindHistogram, labels, func() any { return &Histogram{seconds: true} }).(*Histogram)
}

// ValueHistogram registers (or finds) a unit-less histogram (batch sizes,
// rounds); bounds are exposed as raw values.
func (r *Registry) ValueHistogram(name, help string, labels ...Label) *Histogram {
	return r.getOrCreate(name, help, KindHistogram, labels, func() any { return &Histogram{} }).(*Histogram)
}

// WritePrometheus renders every family in text exposition format, in
// registration order (stable across scrapes).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, len(r.order))
	copy(fams, r.order)
	r.mu.RUnlock()
	for _, f := range fams {
		r.mu.RLock()
		ss := make([]*series, len(f.series))
		copy(ss, f.series)
		r.mu.RUnlock()
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range ss {
			if err := writeSeries(w, f.name, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name string, s *series) error {
	switch inst := s.inst.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, inst.Value())
		return err
	case *CounterFunc:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, (*inst.fn.Load())())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, inst.Value())
		return err
	case *GaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %g\n", name, s.labels, inst.Value())
		return err
	case *Histogram:
		return writeHistogram(w, name, s.labels, inst)
	default:
		return fmt.Errorf("obs: unknown instrument type %T", inst)
	}
}

// writeHistogram emits cumulative buckets (only boundaries with samples,
// plus +Inf), sum, and count. Totals derive from the bucket snapshot so the
// +Inf bucket always equals the count even under concurrent recording.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	snap := h.h.Snapshot()
	// Splice histogram labels with le: drop the closing brace.
	prefix := name + "_bucket{"
	if labels != "" {
		prefix = name + "_bucket" + labels[:len(labels)-1] + ","
	}
	var cum uint64
	for b := range snap.Buckets {
		c := snap.Buckets[b]
		if c == 0 {
			continue
		}
		cum += c
		le := float64(stats.BucketUpper(b)) / float64(time.Second)
		if !h.seconds {
			le = float64(stats.BucketUpper(b)) / float64(time.Microsecond)
		}
		if _, err := fmt.Fprintf(w, "%sle=\"%g\"} %d\n", prefix, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%sle=\"+Inf\"} %d\n", prefix, cum); err != nil {
		return err
	}
	sum := float64(snap.Sum) / 1e6
	if !h.seconds {
		sum = float64(snap.Sum)
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
	return err
}
