package bench

import (
	"fmt"
	"math/rand"
	"time"

	"dpr/internal/core"
	"dpr/internal/metadata"
	"dpr/internal/workload"
)

// AblationFinders compares the exact, approximate, and hybrid cut-finding
// algorithms (§3.3-3.4 and the DESIGN.md ablation list): report-processing
// cost and cut freshness (how far the cut lags the persisted frontier) under
// a synthetic report stream with cross-shard dependencies.
func AblationFinders(opt Options) error {
	opt = opt.withDefaults()
	header(opt.Out, "Ablation: DPR finder algorithms (synthetic report stream)")
	const workers = 16
	reports := 200000
	if opt.Short {
		reports = 20000
	}
	fmt.Fprintf(opt.Out, "%-14s %14s %14s %14s\n", "finder", "reports/s", "cut-lag(avg)", "cut-lag(max)")
	for _, kind := range []metadata.FinderKind{
		metadata.FinderExact, metadata.FinderApproximate, metadata.FinderHybrid,
	} {
		f := metadata.NewFinder(kind)
		for w := core.WorkerID(1); w <= workers; w++ {
			f.AddWorker(w)
		}
		rng := rand.New(rand.NewSource(11))
		next := make(map[core.WorkerID]core.Version)
		var lagSum, lagMax, lagN uint64
		start := time.Now()
		for i := 0; i < reports; i++ {
			w := core.WorkerID(rng.Intn(workers) + 1)
			v := next[w] + 1
			next[w] = v
			var deps []core.Token
			if rng.Intn(2) == 0 {
				dw := core.WorkerID(rng.Intn(workers) + 1)
				if dw != w {
					dv := next[dw]
					if dv > v {
						dv = v // respect monotonicity (§3.2)
					}
					if dv > 0 {
						deps = append(deps, core.Token{Worker: dw, Version: dv})
					}
				}
			}
			f.Report(w, v, deps)
			if i%128 == 0 {
				cut := f.CurrentCut()
				var lag uint64
				for ww, vv := range next {
					if vv > cut.Get(ww) {
						lag += uint64(vv - cut.Get(ww))
					}
				}
				lagSum += lag
				if lag > lagMax {
					lagMax = lag
				}
				lagN++
			}
		}
		elapsed := time.Since(start)
		fmt.Fprintf(opt.Out, "%-14s %14.0f %14.1f %14d\n",
			kind, float64(reports)/elapsed.Seconds(), float64(lagSum)/float64(lagN), lagMax)
	}
	return nil
}

// AblationStrictVsRelaxed compares strict and relaxed DPR (§5.4) on a
// cross-shard workload: relaxed sessions pipeline freely, strict sessions'
// committed prefixes stall behind in-flight operations.
func AblationStrictVsRelaxed(opt Options) error {
	opt = opt.withDefaults()
	header(opt.Out, "Ablation: strict vs relaxed DPR (§5.4)")
	fmt.Fprintf(opt.Out, "%-10s %14s %16s %16s\n", "mode", "Mops/s", "commit-p50", "commit-p99")
	for _, relaxed := range []bool{false, true} {
		name := "strict"
		if relaxed {
			name = "relaxed"
		}
		bc, err := buildCluster(clusterSpec{
			shards: 2, ckptEvery: 50 * time.Millisecond,
			backend: BackendLocalSSD, finder: metadata.FinderApproximate,
		})
		if err != nil {
			return err
		}
		res, err := bc.runWithMode(runSpec{
			clients: 4, batch: 64, dist: workload.Zipfian, readFrac: 0.5,
			keys: opt.Keys, duration: opt.Duration,
			sampleEvery: 128, sampleCommit: true, seed: 21,
		}, relaxed)
		bc.close()
		if err != nil {
			return err
		}
		// Exact sample quantiles: the bucketed histogram's ~12.5% steps made
		// strict and relaxed print the identical bucket floor at this range.
		fmt.Fprintf(opt.Out, "%-10s %14.2f %16v %16v\n", name, res.MopsPerSec(),
			res.CommitExact.Quantile(50).Truncate(time.Microsecond),
			res.CommitExact.Quantile(99).Truncate(time.Microsecond))
	}
	return nil
}
