// Command benchmark is the DPR benchmark: five named workloads against an
// in-process two-shard cluster on loopback TCP, end-to-end metrics from
// untraced runs and per-layer metrics from a separate traced run of each
// workload. README.md says what each workload and metric is for;
// ../BENCHMARK.json is the machine-readable contract.
//
//	go run . -workload commit_paced -seed 1 -seconds 20 -trace 0   one run (the driver's form)
//	go run . [-seed 1] [-repeat 10] [-o results/set-1.json]         every workload, one process each
//	go run . -compare results/set-1.json results/set-2.json         judge b against a
//	go run . -smoke                                                 all workloads, 300 ms windows
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// options are the knobs that are not part of the fixed set-up: where traces
// go, and the shortened warm-up the smoke pass uses.
type options struct {
	out    string
	warmup time.Duration
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload in this process (default: every workload, one process each)")
		seed         = flag.Int64("seed", 1, "seed of the workload generators")
		seconds      = flag.Float64("seconds", 20, "length of the measured window")
		trace        = flag.Int("trace", 0, "with -workload: 1 runs the traced (per-layer) run, 0 the untraced (end-to-end) run")
		repeat       = flag.Int("repeat", 1, "untraced runs per workload, seeds seed..seed+repeat-1; prints median and quartiles")
		outFile      = flag.String("o", "", "write the set's metrics (no spans) to this JSON file")
		outDir       = flag.String("out", "out", "directory for trace-<workload>.json span dumps")
		compare      = flag.Bool("compare", false, "compare two set files: -compare a.json b.json")
		smoke        = flag.Bool("smoke", false, "run every workload, untraced and traced, with 300 ms windows")
		resultFile   = flag.String("result", "", "with -workload: also write the full result to this file (used by the parent process)")
	)
	flag.Parse()
	opt := options{out: *outDir, warmup: warmup}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare a.json b.json")
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1)))
	case *smoke:
		os.Exit(runSmoke(*seed, opt))
	case *workloadName != "":
		spec := findWorkload(*workloadName)
		if spec == nil {
			fatal(2, "unknown workload %q", *workloadName)
		}
		printHost(*seed)
		r, err := runWorkload(spec, *seed, *seconds, *trace != 0, opt)
		if err != nil {
			fatal(1, "%s: %v", spec.name, err)
		}
		if *resultFile != "" {
			if err := writeJSON(*resultFile, r); err != nil {
				fatal(1, "%v", err)
			}
		}
		printResult(r)
		printDriverLine(r)
		if !r.Correct {
			os.Exit(1)
		}
	default:
		os.Exit(runSet(*seed, *seconds, *repeat, *outFile, opt))
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// host is the fingerprint printed with every record, so records from
// different machines are not compared by accident.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func printHost(seed int64) {
	h := hostInfo()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d\n", h.NProc, h.GOMAXPROCS, h.Go, h.Commit, seed)
	fmt.Printf("set-up: %d shards, %d partitions, approximate finder, local-ssd sink device, checkpoint interval %v, %d keys preloaded, %d sessions\n",
		shards, partitions, ckptInterval, preloadKeys, sessions)
}

func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric of a run by name with its unit, then the
// correctness counters.
func printResult(r *result) {
	kind := "end-to-end (untraced)"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("\n%s  seed=%d  window=%gs  %s\n", r.Workload, r.Seed, r.Seconds, kind)
	for _, d := range metricDefs(r.Traced) {
		fmt.Printf("  %-36s %16.6f %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  (%s = %g)\n", k, r.Info[k])
	}
	fmt.Printf("  attempted=%d failed=%d", r.Attempted, r.Failed)
	keys = keys[:0]
	for k := range r.Checks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, r.Checks[k])
	}
	fmt.Println()
	for _, e := range r.Errors {
		fmt.Printf("  ERROR: %s\n", e)
	}
	for _, why := range r.Invalid {
		fmt.Printf("  INVALID RUN: %s\n", why)
	}
	if !r.Correct {
		fmt.Println("  CORRECTNESS FAILURE")
	}
}

// printDriverLine prints the one-object summary the benchmark driver reads
// from the last line of standard output.
func printDriverLine(r *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]value{}}
	for _, d := range metricDefs(r.Traced) {
		line.Metrics[d.name] = value{r.Metrics[d.name], d.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSmoke runs every workload, untraced then traced, in this process with
// 300 ms windows, a 100 ms warm-up and a sixteenth of the keys: a quick
// end-to-end check of the benchmark itself, not a measurement.
func runSmoke(seed int64, opt options) int {
	opt.warmup = 100 * time.Millisecond
	preloadKeys = 1 << 14
	code := 0
	for i := range workloads {
		for _, traced := range []bool{false, true} {
			seconds := 0.3
			if traced {
				seconds = 0.9 // a traced run's window is a third of its length
			}
			r, err := runWorkload(&workloads[i], seed, seconds, traced, opt)
			if err != nil {
				fmt.Printf("%s: %v\n", workloads[i].name, err)
				code = 1
				continue
			}
			printResult(r)
			if !r.Correct {
				code = 1
			}
		}
	}
	return code
}
