package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// A set runs one seed up to validTries times for a valid run, pausing
// validPause before each further try: what makes a generator late on a shared
// host (the hypervisor withholding the processors) comes in phases of minutes.
const (
	validTries = 6
	validPause = 15 * time.Second
)

// stat summarises the values of one metric over a set's repeated runs.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so spreads
// printed here are the ones the benchmark driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}

func newStat(unit string, values []float64) stat {
	q1, q3 := quartiles(values)
	return stat{Unit: unit, Median: median(values), Q1: q1, Q3: q3, Values: values}
}

// workloadRecord is one workload's part of a set file.
type workloadRecord struct {
	Why       string              `json:"why"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Checks    map[string]int64    `json:"checks"`
	EndToEnd  map[string]stat     `json:"end_to_end"`
	PerLayer  map[string]stat     `json:"per_layer"`
	Info      map[string]float64  `json:"info"`
	TraceInfo map[string]float64  `json:"trace_info"`
	Errors    map[string][]string `json:"errors,omitempty"`
	// Discarded counts the invalid runs that were run again and left out.
	Discarded int `json:"discarded_invalid_runs"`
}

// setRecord is a set file: the metrics of one full pass over the workloads
// (no spans), with the host it ran on and the fixed set-up it used.
type setRecord struct {
	Host      host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Repeat    int                        `json:"repeat"`
	Setup     map[string]any             `json:"setup"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

// validChild is child, run again (validTries times at most) while the run is
// invalid. An invalid run is printed and counted, never folded into the set;
// if no try is valid the set fails.
func validChild(rec *workloadRecord, exe string, spec *workloadSpec, seed int64, seconds float64, traced bool, opt options, tmp string) (*result, error) {
	for try := 1; ; try++ {
		r, err := child(exe, spec, seed, seconds, traced, opt, tmp)
		if err != nil || len(r.Invalid) == 0 {
			return r, err
		}
		printResult(r)
		rec.Discarded++
		if try == validTries {
			return nil, fmt.Errorf("no valid run in %d tries: %s", validTries, r.Invalid[0])
		}
		time.Sleep(validPause)
	}
}

// child runs one workload in a process of its own, so one run's peak RSS,
// GC state and leftover goroutines cannot colour the next.
func child(exe string, spec *workloadSpec, seed int64, seconds float64, traced bool, opt options, tmp string) (*result, error) {
	path := filepath.Join(tmp, "result.json")
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", spec.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-out", opt.out, "-result", path)
	cmd.Stderr = os.Stderr
	_, runErr := cmd.Output()
	data, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	os.Remove(path)
	r := new(result)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// runSet runs every workload: repeat untraced runs (seeds seed..seed+repeat-1)
// and one traced run each, prints every metric, and optionally writes the set
// file. Exit code 1 if any run was incorrect.
func runSet(seed int64, seconds float64, repeat int, outFile string, opt options) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	tmp, err := os.MkdirTemp(opt.out, "set-")
	if err != nil {
		fatal(1, "%v", err)
	}
	defer os.RemoveAll(tmp)
	printHost(seed)
	set := &setRecord{
		Host: hostInfo(), Seed: seed, Seconds: seconds, Repeat: repeat,
		Setup: map[string]any{
			"shards": shards, "partitions": partitions, "finder": "approximate",
			"device": "sink:local-ssd", "checkpoint_interval_ms": ckptInterval.Milliseconds(),
			"preloaded_keys": preloadKeys, "key_bytes": 8, "value_bytes": 8, "sessions": sessions,
			"warmup_s": warmup.Seconds(),
		},
		Workloads: map[string]*workloadRecord{},
	}
	code := 0
	for i := range workloads {
		spec := &workloads[i]
		rec := &workloadRecord{
			Why: spec.why, Correct: true, Checks: map[string]int64{},
			EndToEnd: map[string]stat{}, PerLayer: map[string]stat{}, Errors: map[string][]string{},
		}
		set.Workloads[spec.name] = rec
		fold := func(r *result, err error, label string) bool {
			if err != nil {
				rec.Correct = false
				rec.Errors[label] = append(rec.Errors[label], err.Error())
				fmt.Printf("%s %s: %v\n", spec.name, label, err)
				return false
			}
			printResult(r)
			rec.Correct = rec.Correct && r.Correct
			rec.Attempted += r.Attempted
			rec.Failed += r.Failed
			for k, v := range r.Checks {
				rec.Checks[k] += v
			}
			if len(r.Errors) > 0 {
				rec.Errors[label] = r.Errors
			}
			return true
		}
		values := map[string][]float64{}
		for n := 0; n < repeat; n++ {
			r, err := validChild(rec, exe, spec, seed+int64(n), seconds, false, opt, tmp)
			if fold(r, err, fmt.Sprintf("untraced seed %d", seed+int64(n))) {
				for _, d := range endToEnd {
					values[d.name] = append(values[d.name], r.Metrics[d.name])
				}
				rec.Info = r.Info
			}
		}
		for _, d := range endToEnd {
			if len(values[d.name]) > 0 {
				rec.EndToEnd[d.name] = newStat(d.unit, values[d.name])
			}
		}
		r, err := validChild(rec, exe, spec, seed, seconds, true, opt, tmp)
		if fold(r, err, "traced") {
			for _, d := range perLayer {
				rec.PerLayer[d.name] = newStat(d.unit, []float64{r.Metrics[d.name]})
			}
			rec.TraceInfo = r.Info
		}
		if !rec.Correct {
			code = 1
		}
	}
	printSet(set)
	if outFile != "" {
		if err := writeJSON(outFile, set); err != nil {
			fatal(1, "%v", err)
		}
	}
	return code
}

// printSet prints the end-to-end table of a set: median and quartiles per
// workload and metric, with the spread held against the metric's bound.
func printSet(set *setRecord) {
	fmt.Printf("\nend-to-end, %d run(s) per workload: median [q1 .. q3], spread = (q3-q1)/median\n", set.Repeat)
	for i := range workloads {
		rec := set.Workloads[workloads[i].name]
		verdict := "correct"
		if !rec.Correct {
			verdict = "INCORRECT"
		}
		if workloads[i].ungated {
			verdict += ", not gated"
		}
		fmt.Printf("%s (%s, attempted=%d failed=%d, %d invalid run(s) discarded)\n", workloads[i].name, verdict, rec.Attempted, rec.Failed, rec.Discarded)
		for _, d := range endToEnd {
			s, ok := rec.EndToEnd[d.name]
			if !ok {
				continue
			}
			fmt.Printf("  %-16s %14.4f %-4s [%.4f .. %.4f] spread %.3f (bound %.2f)\n",
				d.name, s.Median, d.unit, s.Q1, s.Q3, s.spread(), d.bound)
		}
	}
}

func readSet(path string) *setRecord {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(2, "%v", err)
	}
	set := new(setRecord)
	if err := json.Unmarshal(data, set); err != nil {
		fatal(2, "%s: %v", path, err)
	}
	return set
}

// judge holds b's median of one end-to-end metric against a's: the move is
// the share of a's median by which b is worse (negative: better). A move
// past the bound is a regression, unless either side's own spread is wider
// than the bound — then the runs cannot tell, and the pair is unresolved
// rather than unchanged.
func judge(d metricDef, a, b stat) (move float64, verdict string) {
	if a.Median != 0 {
		move = (b.Median - a.Median) / a.Median
	}
	if d.better == "higher" {
		move = -move
	}
	switch {
	case a.spread() > d.bound || b.spread() > d.bound:
		verdict = "unresolved"
	case move > d.bound:
		verdict = "REGRESSION"
	default:
		verdict = "ok"
	}
	return move, verdict
}

// compareSets prints, per workload and end-to-end metric, b's move against a
// and its bound. Exit code 1 if anything on a gated row regressed or is
// unresolved, or either set holds an incorrect run on any row.
func compareSets(pathA, pathB string) int {
	a, b := readSet(pathA), readSet(pathB)
	fmt.Printf("a: %s  seed=%d repeat=%d commit=%s nproc=%d\n", pathA, a.Seed, a.Repeat, a.Host.Commit, a.Host.NProc)
	fmt.Printf("b: %s  seed=%d repeat=%d commit=%s nproc=%d\n", pathB, b.Seed, b.Repeat, b.Host.Commit, b.Host.NProc)
	bad := 0
	for i := range workloads {
		name := workloads[i].name
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			fmt.Printf("%s: missing from a set\n", name)
			bad++
			continue
		}
		if workloads[i].ungated {
			name += " (not gated: verdicts are information, only correctness counts)"
		}
		fmt.Println(name)
		if !ra.Correct || !rb.Correct || ra.Failed+rb.Failed != 0 {
			fmt.Printf("  INCORRECT: a correct=%v failed=%d, b correct=%v failed=%d\n", ra.Correct, ra.Failed, rb.Correct, rb.Failed)
			bad++
		}
		for _, d := range endToEnd {
			move, verdict := judge(d, ra.EndToEnd[d.name], rb.EndToEnd[d.name])
			if verdict != "ok" && !workloads[i].ungated {
				bad++
			}
			fmt.Printf("  %-16s a=%-14.4f b=%-14.4f worse by %+7.3f (bound %.2f; spreads %.3f, %.3f)  %s\n",
				d.name, ra.EndToEnd[d.name].Median, rb.EndToEnd[d.name].Median, move, d.bound,
				ra.EndToEnd[d.name].spread(), rb.EndToEnd[d.name].spread(), verdict)
		}
	}
	if bad != 0 {
		fmt.Printf("%d pairing(s) regressed, unresolved or incorrect\n", bad)
		return 1
	}
	fmt.Println("no regression, nothing unresolved")
	return 0
}
