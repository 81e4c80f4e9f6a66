package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/metadata"
	"dpr/internal/storage"
	"dpr/internal/workload"
)

// The metadata decorator must keep the pushed commit plane: libdpr
// type-asserts its metadata service to StateWatcher and silently polls when
// the assertion fails, so a decorator that hid the interface would make the
// traced run measure a different system.
func TestMetaTraceKeepsWatchAndElastic(t *testing.T) {
	store := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	var svc metadata.Service = newMetaTrace(store, newTracer())
	if _, ok := svc.(metadata.StateWatcher); !ok {
		t.Fatal("metaTrace does not implement metadata.StateWatcher")
	}
	if _, ok := svc.(metadata.ElasticService); !ok {
		t.Fatal("metaTrace does not pass metadata.ElasticService through")
	}
	if err := svc.RegisterWorker(1, "x"); err != nil {
		t.Fatal(err)
	}
	mt := svc.(*metaTrace)
	gen := store.Generation()
	woke := make(chan uint64, 1)
	go func() {
		g, _ := mt.WaitStateChange(gen, 5*time.Second)
		woke <- g
	}()
	if err := svc.ReportVersion(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-woke:
		if g == gen {
			t.Fatal("WaitStateChange returned without a generation change")
		}
	case <-time.After(4 * time.Second):
		t.Fatal("a report through the decorator did not wake the decorator's WaitStateChange")
	}
	if len(mt.reports) != 1 || mt.reports[0].worker != 1 || mt.reports[0].version != 1 {
		t.Fatalf("report stream = %+v, want one report of worker 1 version 1", mt.reports)
	}
}

// A worker built on the decorated service must report the watched plane.
func TestTracedClusterUsesWatchedPlane(t *testing.T) {
	c, err := buildCluster(findWorkload("commit_paced"), newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for _, w := range c.fworkers {
		if !w.DPR().DebugState("dfaster").MetaWatch {
			t.Fatalf("worker %d fell back to the polled commit plane under the decorator", w.ID())
		}
	}
}

// stubDevice completes every write synchronously with a fixed error.
type stubDevice struct {
	storage.Device
	err error
}

func (d stubDevice) WriteAsync(_ string, _ int64, _ []byte, done func(error)) { done(d.err) }

func TestDevTraceFiresDoneOnceAndForwardsErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, want := range []error{nil, boom} {
		d := &devTrace{Device: stubDevice{err: want}, tr: newTracer()}
		calls := 0
		var got error
		d.WriteAsync("blob", 0, make([]byte, 24), func(err error) { calls++; got = err })
		if calls != 1 {
			t.Fatalf("done fired %d times, want exactly once", calls)
		}
		if got != want {
			t.Fatalf("done got %v, want %v", got, want)
		}
		if len(d.writes) != 1 || d.sizes[0] != 24 || d.writes[0].end < d.writes[0].start {
			t.Fatalf("write not recorded: %+v %v", d.writes, d.sizes)
		}
		if d.tr.next.Load() != 1 {
			t.Fatalf("want one storage.write span, have %d", d.tr.next.Load())
		}
	}
}

func TestQuantileIsExactNearestRank(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {51, 60}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {10.1, 20}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(p%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if quantile(nil, 50) != 0 {
		t.Error("quantile of no samples must be 0")
	}
	s := newSamples(2)
	s.add(3)
	s.add(1)
	s.add(2) // past capacity: dropped and counted, never appended
	if got := s.sorted(); len(got) != 2 || got[0] != 1 || got[1] != 3 || s.dropped.Load() != 1 {
		t.Errorf("samples = %v dropped %d, want [1 3] dropped 1", got, s.dropped.Load())
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	few := make([]int64, 150) // supports p90 only: a "p99" metric reports p90
	for i := range few {
		few[i] = int64(i + 1)
	}
	if got := p99OrBest(few); got != 135 {
		t.Errorf("p99OrBest over 150 samples = %d, want the p90 (135)", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %g, %g; want 1, 4", q1, q3)
	}
}

// The open-loop scheduler never shifts a due time: a stall is charged to the
// slots that fell due during it.
func TestPaceChargesStallToDueSlots(t *testing.T) {
	np, err := newNapper()
	if err != nil {
		t.Fatal(err)
	}
	defer np.close()
	const every, stallAt, slots = int64(time.Millisecond), 10, 100
	const stall = 50 * time.Millisecond
	start := now()
	var late []int64
	pace(np, start, every, func(int64) {}, func(due int64) bool {
		k := len(late)
		if want := start + int64(k)*every; due != want {
			t.Fatalf("slot %d due at %d, want %d: the schedule shifted", k, due, want)
		}
		late = append(late, now()-due)
		if k == stallAt {
			time.Sleep(stall)
		}
		return k+1 < slots
	})
	// The slot right after the stall was due 1 ms into it.
	if got := time.Duration(late[stallAt+1]); got < stall-2*time.Millisecond {
		t.Errorf("slot after the stall ran %v late, want about %v", got, stall-time.Millisecond)
	}
	// A slot due half-way through it carries the other half.
	if got := time.Duration(late[stallAt+25]); got < 20*time.Millisecond {
		t.Errorf("slot due mid-stall ran %v late, want about 25ms", got)
	}
	// Once the backlog is issued the generator is back on schedule.
	if got := time.Duration(late[slots-1]); got > 10*time.Millisecond {
		t.Errorf("last slot still %v late: the generator never caught up", got)
	}
}

func TestNapperIsFinerThanAMillisecond(t *testing.T) {
	np, err := newNapper()
	if err != nil {
		t.Fatal(err)
	}
	defer np.close()
	var took []float64
	for i := 0; i < 50; i++ {
		t0 := now()
		np.nap(int64(200 * time.Microsecond))
		took = append(took, float64(now()-t0))
	}
	if m := time.Duration(median(took)); m < 200*time.Microsecond || m > 800*time.Microsecond {
		t.Errorf("median 200µs nap took %v", m)
	}
}

// A queued operation is committed iff it is at or below the prefix and not
// an exception, at the first observation that says so.
func TestFoldCommitsHonoursExceptions(t *testing.T) {
	s := &session{commitLat: newSamples(64)}
	s.cq = []commitEntry{{lo: 1, hi: 10, t0: 100}, {lo: 11, hi: 12, t0: 200}}
	s.foldCommits(7, []uint64{3, 5}, 1000)
	if n := s.commitLat.n.Load(); n != 5 {
		t.Fatalf("prefix 7 with exceptions {3,5}: %d samples, want 5 (1,2,4,6,7)", n)
	}
	if len(s.holes) != 2 || s.cq[s.cqHead].lo != 8 {
		t.Fatalf("holes %v, queue head %+v; want two holes and the head trimmed to 8", s.holes, s.cq[s.cqHead])
	}
	s.foldCommits(9, []uint64{5}, 2000) // 3 clears; 8 and 9 commit; 5 still excepted
	s.foldCommits(12, nil, 3000)        // 5, 10, 11, 12
	got := s.commitLat.sorted()
	want := []int64{900, 900, 900, 900, 900, 1900, 1900, 1900, 2800, 2800, 2900, 2900}
	if len(got) != len(want) {
		t.Fatalf("samples %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("samples %v, want %v", got, want)
		}
	}
	if len(s.holes) != 0 || s.cqHead != len(s.cq) {
		t.Fatalf("queue not drained: holes %v head %d of %d", s.holes, s.cqHead, len(s.cq))
	}
}

// The crash_recover checker's self-test, the counterpart of chaos's
// InjectSkippedRollback: a history with one forged lost-committed write and
// one forged phantom write must fail the run.
func TestFateCheckerFlagsForgedHistory(t *testing.T) {
	keys := sessionKeys(findWorkload("crash_recover"), 0)
	build := func() (*fateChecker, [3]int32) {
		c := newFateChecker(0, 16)
		var w [3]int32
		// Key 0: two writes, both completed and committed.
		w[0] = c.begin(0, true)
		c.sent(w[0], 1)
		c.complete(w[0], true, 5)
		w[1] = c.begin(0, true)
		c.sent(w[1], 2)
		c.complete(w[1], true, 5)
		c.markCommitted(2, nil)
		// Key 1: one write completed in version 9, then a failure whose
		// recovered cut tops out at version 7 erases it.
		w[2] = c.begin(1, true)
		c.sent(w[2], 3)
		c.complete(w[2], true, 9)
		c.onFailure(&core.SurvivalError{WorldLine: 1, SurvivingPrefix: 2}, 7)
		c.prepareReadback(2)
		return c, w
	}
	payload := func(c *fateChecker, idx int32) []byte { v := c.payload(idx); return v[:] }
	pre := func(k int) []byte { v := workload.Value8(keys[k]); return v[:] }

	honest, w := build()
	honest.observe(0, keys[0], true, payload(honest, w[1])) // newest committed write
	honest.observe(1, keys[1], true, pre(1))                // rolled back to the preloaded value
	if honest.lostCommitted != 0 || honest.phantomWrites != 0 {
		t.Fatalf("honest history flagged: lost_committed=%d phantom_writes=%d", honest.lostCommitted, honest.phantomWrites)
	}
	if honest.erased != 1 || honest.aborted != 0 {
		t.Fatalf("erased=%d aborted=%d, want 1 and 0 (the erased write had completed)", honest.erased, honest.aborted)
	}

	forged, w := build()
	forged.observe(0, keys[0], true, payload(forged, w[0])) // older than the committed floor
	forged.observe(1, keys[1], true, payload(forged, w[2])) // a rolled-back value resurfaced
	if forged.lostCommitted != 1 || forged.phantomWrites != 1 {
		t.Fatalf("forged history: lost_committed=%d phantom_writes=%d, want 1 and 1", forged.lostCommitted, forged.phantomWrites)
	}
	r := &result{Checks: map[string]int64{}, Info: map[string]float64{}}
	s := &session{fate: forged, opLat: newSamples(1), commitLat: newSamples(1), late: newSamples(1), run: &liveRun{spec: findWorkload("crash_recover")}}
	s.opLat.add(1)
	s.commitLat.add(1)
	win := &window{checks: map[string]int64{"lost_committed": forged.lostCommitted, "phantom_writes": forged.phantomWrites},
		sessions: []*session{s}, opLat: []int64{1}, commitLat: []int64{1}}
	r.verdict(win)
	if r.Correct {
		t.Fatal("a run with a lost committed write and a phantom write was reported correct")
	}

	// Other forgeries: a committed prefix truncated by the rollback, a value
	// nobody wrote, and a committed key reverting to its preloaded value.
	c, _ := build()
	c.onFailure(&core.SurvivalError{WorldLine: 2, SurvivingPrefix: 1}, 7)
	if c.lostCommitted != 1 {
		t.Errorf("surviving prefix below the committed prefix: lost_committed=%d, want 1", c.lostCommitted)
	}
	c, _ = build()
	var junk [8]byte
	binary.LittleEndian.PutUint64(junk[:], 1<<56|999)
	c.observe(1, keys[1], true, junk[:])
	c.observe(0, keys[0], true, pre(0))
	c.observe(1, keys[1], false, nil)
	if c.phantomWrites != 1 || c.lostCommitted != 2 {
		t.Errorf("phantom_writes=%d lost_committed=%d, want 1 and 2", c.phantomWrites, c.lostCommitted)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	tight := func(m float64) stat { return stat{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := stat{Median: 100, Q1: 90, Q3: 110}
	if _, v := judge(d, tight(100), tight(95)); v != "ok" {
		t.Errorf("5%% lower throughput within a 10%% bound: %s", v)
	}
	if move, v := judge(d, tight(100), tight(80)); v != "REGRESSION" || move < 0.19 {
		t.Errorf("20%% lower throughput: %s (move %g)", v, move)
	}
	if _, v := judge(d, tight(100), tight(120)); v != "ok" {
		t.Errorf("higher throughput judged %s", v)
	}
	if _, v := judge(d, wide, tight(80)); v != "unresolved" {
		t.Errorf("a side wider than the bound must be unresolved, got %s", v)
	}
	lower := metricDef{name: "op_p50_ms", better: "lower", bound: 0.10}
	if _, v := judge(lower, tight(1), tight(1.2)); v != "REGRESSION" {
		t.Errorf("20%% higher latency: %s", v)
	}
}

// A late generator invalidates commit_paced and nothing else: crash_recover
// stalls its sessions on purpose and the closed loops have no schedule.
func TestLateGeneratorInvalidatesPacedRun(t *testing.T) {
	for _, c := range []struct {
		workload string
		lateMs   float64
		invalid  bool
	}{
		{"commit_paced", 0.44, false},
		{"commit_paced", 1.5, true},
		{"crash_recover", 38, false},
		{"ycsb_a_batched", 0, false},
	} {
		r := new(result)
		r.checkGenerator(findWorkload(c.workload), c.lateMs)
		if got := len(r.Invalid) != 0; got != c.invalid {
			t.Errorf("%s late_p99_ms=%g: invalid=%v, want %v", c.workload, c.lateMs, got, c.invalid)
		}
	}
}

func TestStolenShare(t *testing.T) {
	if got := stolenShare(hostTime{total: 1000, stolen: 10}, hostTime{total: 3000, stolen: 110}); got != 0.05 {
		t.Errorf("100 of 2000 ticks stolen: share %g, want 0.05", got)
	}
	if got := stolenShare(hostTime{}, hostTime{}); got != 0 {
		t.Errorf("an unreadable /proc/stat must turn the check off, got share %g", got)
	}
	if h := hostTicks(); h.total <= 0 || h.stolen < 0 || h.stolen > h.total {
		t.Errorf("/proc/stat read as %+v", h)
	}
}

// BENCHMARK.json and the tables in spec.go describe the same benchmark, and
// the file stays inside the driver's schema.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, the schema has exactly 6", len(keys))
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var gated []workloadSpec
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in spec.go", len(doc.Workloads), len(gated))
	}
	for i, w := range doc.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: %q / %q differs from spec.go", i, w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q outside the schema (why is %d chars)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %+v differs from spec.go %+v", kind, i, m, d)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s %q (%q) outside the schema", kind, m.Name, m.Unit)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %q: bound %v, spec.go has %g", kind, m.Name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %q must not carry a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Error("too many metrics for the schema")
	}
	setup := false
	for _, m := range doc.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end must include setup_s in seconds, lower is better")
	}
}

// smokeBudget bounds the smoke pass; race_test.go widens it under the race
// detector, which slows everything several times over.
var smokeBudget = 15 * time.Second

// The smoke pass: every workload, untraced and traced, 300 ms windows.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads end to end")
	}
	start := time.Now()
	code := runSmoke(1, options{out: t.TempDir()})
	took := time.Since(start)
	t.Logf("smoke pass took %v", took)
	if code != 0 {
		t.Fatal("smoke pass reported a failed or incorrect run")
	}
	if took > smokeBudget {
		t.Errorf("smoke pass took %v, want under %v", took, smokeBudget)
	}
}
