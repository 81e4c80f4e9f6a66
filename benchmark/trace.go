package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dpr/internal/core"
	"dpr/internal/metadata"
	"dpr/internal/storage"
)

// clock is the benchmark's time base: nanoseconds since process start, read
// from the monotonic clock.
var procStart = time.Now()

func now() int64 { return int64(time.Since(procStart)) }

// span is one timed call into a layer, recorded from the benchmark's side of
// the call boundary. Spans of one stepped batch share a trace id under a
// serve.batch parent, so a layer's self time is its duration minus its
// children's.
type span struct {
	id, parent, trace uint64
	name              string
	start, end        int64
}

// tracer keeps spans in a preallocated ring (the newest ringSize spans win)
// and writes them out when the run ends. A nil *tracer records nothing, which
// is how untraced runs are untraced.
type tracer struct {
	ring []span
	next atomic.Uint64 // spans ever recorded; ids are 1-based positions
}

const ringSize = 1 << 17

func newTracer() *tracer { return &tracer{ring: make([]span, ringSize)} }

// newID reserves a span id (and ring position) ahead of its children.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// put stores a span under an id from newID.
func (t *tracer) put(id, parent, trace uint64, name string, start, end int64) {
	if t == nil {
		return
	}
	t.ring[(id-1)%ringSize] = span{id: id, parent: parent, trace: trace, name: name, start: start, end: end}
}

// record stores a root span in a trace of its own.
func (t *tracer) record(name string, start, end int64) {
	if t == nil {
		return
	}
	id := t.newID()
	t.put(id, 0, id, name, start, end)
}

// dump writes the ring as a JSON array, oldest span first.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	total := t.next.Load()
	first := uint64(0)
	if total > ringSize {
		first = total - ringSize
	}
	fmt.Fprint(w, "[")
	sep := ""
	for i := first; i < total; i++ {
		s := &t.ring[i%ringSize]
		if s.id != i+1 {
			continue // reserved by newID, never stored
		}
		fmt.Fprintf(w, "%s\n{\"id\":%d,\"parent\":%d,\"trace\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}",
			sep, s.id, s.parent, s.trace, s.name, s.start, s.end)
		sep = ","
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is one timed call kept for the per-layer numbers and the commit
// chain join (the span ring may have wrapped by then).
type interval struct{ start, end int64 }

// devTrace decorates a shard's storage.Device: every WriteAsync is timed from
// the call to its done callback, and counted with its bytes.
type devTrace struct {
	storage.Device
	tr *tracer

	mu     sync.Mutex
	writes []interval
	sizes  []int64 // bytes of writes[i]
}

func (d *devTrace) WriteAsync(blob string, offset int64, data []byte, done func(error)) {
	start := now()
	n := int64(len(data))
	d.Device.WriteAsync(blob, offset, data, func(err error) {
		end := now()
		d.mu.Lock()
		d.writes = append(d.writes, interval{start, end})
		d.sizes = append(d.sizes, n)
		d.mu.Unlock()
		d.tr.record("storage.write", start, end)
		done(err)
	})
}

// reportRec is one ReportVersion call as the finder saw it; the stream feeds
// the shadow finder that times core.Finder in isolation.
type reportRec struct {
	interval
	worker  core.WorkerID
	version core.Version
	deps    []core.Token
}

// metaTrace decorates the metadata service handed to workers and clients. It
// embeds ElasticService so membership and migration calls pass through, and
// implements StateWatcher itself: libdpr type-asserts for it, and without it
// would silently fall back to the polled commit plane, so the traced run
// would measure a different system.
type metaTrace struct {
	metadata.ElasticService
	watch metadata.StateWatcher
	tr    *tracer

	mu      sync.Mutex
	reports []reportRec
	waits   []interval // WaitStateChange long-polls
	states  []interval // State calls
}

func newMetaTrace(store *metadata.Store, tr *tracer) *metaTrace {
	return &metaTrace{ElasticService: store, watch: store, tr: tr}
}

func (m *metaTrace) ReportVersion(w core.WorkerID, v core.Version, deps []core.Token) error {
	start := now()
	err := m.ElasticService.ReportVersion(w, v, deps)
	end := now()
	m.mu.Lock()
	m.reports = append(m.reports, reportRec{interval{start, end}, w, v, append([]core.Token(nil), deps...)})
	m.mu.Unlock()
	m.tr.record("metadata.report", start, end)
	return err
}

func (m *metaTrace) State() (core.Cut, core.Version, core.WorldLine, error) {
	start := now()
	cut, vmax, wl, err := m.ElasticService.State()
	end := now()
	m.mu.Lock()
	m.states = append(m.states, interval{start, end})
	m.mu.Unlock()
	return cut, vmax, wl, err
}

func (m *metaTrace) WaitStateChange(since uint64, timeout time.Duration) (uint64, error) {
	start := now()
	gen, err := m.watch.WaitStateChange(since, timeout)
	end := now()
	m.mu.Lock()
	m.waits = append(m.waits, interval{start, end})
	m.mu.Unlock()
	m.tr.record("metadata.wait_state_change", start, end)
	return gen, err
}

var (
	_ metadata.ElasticService = (*metaTrace)(nil)
	_ metadata.StateWatcher   = (*metaTrace)(nil)
	_ storage.Device          = (*devTrace)(nil)
)
