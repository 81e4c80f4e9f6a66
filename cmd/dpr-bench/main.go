// dpr-bench regenerates the figures of the paper's evaluation (§7). Each
// subcommand builds the relevant system (D-FASTER, D-Redis, baselines)
// in-process, drives the YCSB workload with the paper's parameters, and
// prints the table/series the paper reports.
//
// Usage:
//
//	dpr-bench [flags] <figure...>
//	dpr-bench -duration 5s all
//	dpr-bench -short fig10 fig16
//
// Figures: fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19
// Ablations: finders strictrelaxed
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dpr/internal/bench"
)

var figures = []struct {
	name string
	desc string
	fn   func(bench.Options) error
}{
	{"fig10", "scale-out: throughput vs #shards x storage backends", bench.Fig10},
	{"fig11", "scale-up: throughput vs #threads x {no-chkpt, no-dpr, dpr}", bench.Fig11},
	{"fig12", "operation & commit latency distributions", bench.Fig12},
	{"fig13", "throughput-latency trade-off across batch sizes", bench.Fig13},
	{"fig14", "storage backend vs checkpoint interval", bench.Fig14},
	{"fig15", "co-located execution sweep", bench.Fig15},
	{"fig16", "recovery timeline under injected failures", bench.Fig16},
	{"fig17", "D-Redis vs Redis vs Redis+proxy throughput", bench.Fig17},
	{"fig18", "D-Redis vs Redis vs Redis+proxy latency", bench.Fig18},
	{"fig19", "recoverability levels across systems", bench.Fig19},
	{"finders", "ablation: exact vs approximate vs hybrid finder", bench.AblationFinders},
	{"strictrelaxed", "ablation: strict vs relaxed DPR", bench.AblationStrictVsRelaxed},
}

func main() {
	duration := flag.Duration("duration", 2*time.Second, "measurement window per cell")
	keys := flag.Int64("keys", 1<<18, "keyspace size")
	short := flag.Bool("short", false, "trim sweeps for a quick pass")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dpr-bench [flags] <figure...|all>\n\nfigures:\n")
		for _, f := range figures {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", f.name, f.desc)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	opt := bench.Options{Out: os.Stdout, Duration: *duration, Keys: *keys, Short: *short}
	want := map[string]bool{}
	for _, a := range args {
		want[a] = true
	}
	ran := 0
	for _, f := range figures {
		if want["all"] || want[f.name] {
			start := time.Now()
			if err := f.fn(opt); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, err)
				os.Exit(1)
			}
			fmt.Printf("(%s took %v)\n", f.name, time.Since(start).Truncate(time.Millisecond))
			ran++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no figure matched %v\n", args)
		os.Exit(2)
	}
}
