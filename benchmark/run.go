package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Checks are the correctness counters; all must be 0 for Correct.
	Checks map[string]int64 `json:"checks"`
	// Info carries sample counts and the tail percentile they support.
	Info   map[string]float64 `json:"info"`
	Errors []string           `json:"errors,omitempty"`
	// Invalid says why the run's numbers must not be used although its
	// outputs were correct. Sets re-run such a run and never fold it in.
	Invalid []string `json:"invalid,omitempty"`
}

// window is the outcome of one measured window on a live cluster.
type window struct {
	start, end int64
	sessions   []*session
	inj        *injector

	ops, attempted, failed int64
	cpuSeconds             float64 // process CPU time (user+system) spent during the window
	stolen                 float64 // share of the host's processor time the hypervisor withheld during it
	opLat, commitLat, late []int64
	checks                 map[string]int64
	errors                 []string
}

func (w *window) seconds() float64   { return float64(w.end-w.start) / 1e9 }
func (w *window) opsPerSec() float64 { return float64(w.ops) / w.seconds() }

// setUp builds a cluster and preloads it.
func setUp(spec *workloadSpec, tr *tracer) (*testCluster, error) {
	c, err := buildCluster(spec, tr)
	if err != nil {
		return nil, err
	}
	if err := c.preload(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// measure opens the sessions, warms up, runs the measured window and settles:
// every session drains, sees everything it issued committed and, on
// crash_recover, reads its stripe back through the fate checker.
func measure(c *testCluster, seed int64, warm, length time.Duration, tr *tracer) (*window, error) {
	run := &liveRun{spec: c.spec, cluster: c, traced: tr != nil}
	w := &window{checks: map[string]int64{}}
	if c.spec.crash {
		run.inj = &injector{mgr: c.mgr, tr: tr}
		w.inj = run.inj
	}
	for id := 0; id < sessions; id++ {
		s, err := newSession(id, run, seed, length.Seconds())
		if err != nil {
			for _, open := range w.sessions {
				open.close()
			}
			return nil, err
		}
		w.sessions = append(w.sessions, s)
	}
	settled := make([]bool, sessions)
	var wg sync.WaitGroup
	for _, s := range w.sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			if c.spec.paced {
				s.runPaced()
			} else {
				s.runClosed()
			}
			if s.err == nil {
				settled[s.id] = s.finish()
			}
			if s.err == nil && settled[s.id] && s.fate != nil {
				s.readback()
			}
		}(s)
	}
	time.Sleep(warm)
	w.start = now()
	run.phase.Store(phaseMeasure)
	stopInj := make(chan struct{})
	var injDone sync.WaitGroup
	if run.inj != nil {
		injDone.Add(1)
		go func() {
			defer injDone.Done()
			run.inj.run(seed, w.start, w.start+int64(length), stopInj)
		}()
	}
	cpu0, host0 := cpuSeconds(), hostTicks()
	time.Sleep(length)
	run.phase.Store(phaseStop)
	w.end = now()
	w.cpuSeconds = cpuSeconds() - cpu0
	w.stolen = stolenShare(host0, hostTicks())
	close(stopInj)
	injDone.Wait()
	wg.Wait()

	for _, s := range w.sessions {
		s.close()
		w.ops += s.doneInWindow.Load()
		w.attempted += s.attempted
		ok := s.okAttempted.Load()
		var aborted int64
		if s.fate != nil {
			ok, aborted = s.fate.ok, s.fate.aborted
			w.checks["lost_committed"] += s.fate.lostCommitted
			w.checks["phantom_writes"] += s.fate.phantomWrites
		}
		w.failed += s.attempted - ok - aborted
		w.checks["wrong_reads"] += s.wrongReads.Load()
		w.checks["bookkeeping_errors"] += s.bookkeeping.Load()
		w.checks["samples_dropped"] += s.opLat.dropped.Load() + s.commitLat.dropped.Load() + s.late.dropped.Load()
		if !settled[s.id] {
			w.checks["sessions_unsettled"]++
		}
		if s.err != nil {
			w.errors = append(w.errors, s.err.Error())
		}
		w.opLat = append(w.opLat, s.opLat.sorted()...)
		w.commitLat = append(w.commitLat, s.commitLat.sorted()...)
		w.late = append(w.late, s.late.sorted()...)
	}
	if w.inj != nil && w.inj.err != nil {
		w.errors = append(w.errors, "OnFailure: "+w.inj.err.Error())
	}
	for _, xs := range [][]int64{w.opLat, w.commitLat, w.late} {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	return w, nil
}

// verdict folds a window's checks into the result. A run is correct when no
// operation failed, every check counter is zero, and it produced samples. A
// window during which the hypervisor withheld more than stealLimit of the
// processor time makes the run invalid, not incorrect.
func (r *result) verdict(w *window) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	for k, v := range w.checks {
		r.Checks[k] += v
	}
	r.Errors = append(r.Errors, w.errors...)
	r.Info["host_stolen_share"] = max(r.Info["host_stolen_share"], w.stolen)
	if w.stolen > stealLimit {
		r.Invalid = append(r.Invalid, fmt.Sprintf("host disturbed: the hypervisor withheld %.3f of the window's processor time, above %g", w.stolen, stealLimit))
	}
	if len(w.opLat) == 0 || len(w.commitLat) == 0 {
		r.Errors = append(r.Errors, "no latency samples: the window measured nothing")
	}
	r.Correct = r.Failed == 0 && len(r.Errors) == 0
	for _, v := range r.Checks {
		if v != 0 {
			r.Correct = false
		}
	}
}

// checkGenerator marks an open-loop run invalid when its generator ran more
// than lateLimit behind at the 99th percentile: the stalled slots then arrive
// as bursts, and the run measured queueing, which commit_paced exists to
// exclude. crash_recover is exempt: every injected failure stalls its
// sessions until they acknowledge it, ~9 times a window, by design.
func (r *result) checkGenerator(spec *workloadSpec, lateP99ms float64) {
	if spec.paced && !spec.crash && lateP99ms > ms(float64(lateLimit)) {
		r.Invalid = append(r.Invalid, fmt.Sprintf("generator late: late_p99_ms %.3f above %v", lateP99ms, lateLimit))
	}
}

// runWorkload is one run of one workload in this process: an untraced run
// yields the end-to-end metrics, a traced run the per-layer metrics.
func runWorkload(spec *workloadSpec, seed int64, seconds float64, traced bool, opt options) (*result, error) {
	r := &result{
		Workload: spec.name, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]float64{}, Checks: map[string]int64{}, Info: map[string]float64{},
	}
	length := time.Duration(seconds * float64(time.Second))
	begin := now()
	if traced {
		if err := runTraced(spec, seed, length, opt, r); err != nil {
			return nil, err
		}
		return r, nil
	}

	// One set-up per process: a discarded cluster's garbage, resident pages
	// and goroutines would colour the window's peak_rss_mb and ops_per_s.
	c, err := setUp(spec, nil)
	if err != nil {
		return nil, err
	}
	defer c.close()
	built := now()
	w, err := measure(c, seed, opt.warmup, length, nil)
	if err != nil {
		return nil, err
	}
	r.verdict(w)
	r.Metrics["ops_per_s"] = w.opsPerSec()
	r.Info["op_p50_ms"] = ms(float64(quantile(w.opLat, 50)))
	r.Metrics["commit_p50_ms"] = ms(float64(quantile(w.commitLat, 50)))
	// Set-up is everything before the window: build, preload and warm-up.
	// In the one-process-per-run forms the run is the process's first act, so
	// this is process start to window start less the runtime's own start-up.
	r.Metrics["setup_s"] = float64(w.start-begin) / 1e9
	r.Info["build_preload_s"] = float64(built-begin) / 1e9
	r.Metrics["peak_rss_mb"] = peakRSSMB()
	r.Info["cpu_us_per_op"] = w.cpuSeconds / float64(max(w.ops, 1)) * 1e6
	r.Info["op_samples"] = float64(len(w.opLat))
	r.Info["commit_samples"] = float64(len(w.commitLat))
	r.Info["op_tail_percentile"] = tailPercentile(len(w.opLat))
	r.Info["op_tail_ms"] = ms(float64(quantile(w.opLat, tailPercentile(len(w.opLat)))))
	r.Info["commit_tail_percentile"] = tailPercentile(len(w.commitLat))
	r.Info["commit_tail_ms"] = ms(float64(quantile(w.commitLat, tailPercentile(len(w.commitLat)))))
	r.Info["failed_share"] = float64(r.Failed) / float64(max(r.Attempted, 1))
	if spec.paced {
		r.Info["offered_ops_per_s"] = float64(sessions*pacedPerSlot) * float64(time.Second/pacedSlot)
		r.Info["late_p50_ms"] = ms(float64(quantile(w.late, 50)))
		r.Info["late_p99_ms"] = ms(float64(p99OrBest(w.late)))
		r.checkGenerator(spec, r.Info["late_p99_ms"])
	}
	if w.inj != nil {
		r.Info["failures_injected"] = float64(w.inj.count())
	}
	return r, nil
}

// cpuSeconds is the CPU time (user+system) the process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// hostTime is processor time in clock ticks, summed over the processors.
type hostTime struct{ total, stolen float64 }

// hostTicks reads the host's cumulative processor time from /proc/stat: all
// of it, and the part the hypervisor gave to someone else (steal). Zeros when
// the file cannot be read, which turns the check off.
func hostTicks() (t hostTime) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return t
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return hostTime{}
		}
		t.total += v
		if i == 7 {
			t.stolen = v
		}
	}
	return t
}

func stolenShare(from, to hostTime) float64 {
	if to.total <= from.total {
		return 0
	}
	return (to.stolen - from.stolen) / (to.total - from.total)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
