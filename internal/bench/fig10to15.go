package bench

import (
	"fmt"
	"sync"
	"time"

	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/storage"
	"dpr/internal/workload"
)

// Fig10 regenerates Figure 10 (Scaling out D-FASTER): throughput vs shard
// count for {No Chkpts, Null, Local SSD, Cloud SSD}, under uniform and
// Zipfian(0.99) YCSB-A 50:50.
func Fig10(opt Options) error {
	opt = opt.withDefaults()
	shardCounts := []int{1, 2, 4, 8}
	if opt.Short {
		shardCounts = []int{1, 2, 4}
	}
	configs := []struct {
		name    string
		ckpt    time.Duration
		backend StorageBackend
	}{
		{"No Chkpts", 0, BackendNull},
		{"Null", 100 * time.Millisecond, BackendNull},
		{"Local SSD", 100 * time.Millisecond, BackendLocalSSD},
		{"Cloud SSD", 100 * time.Millisecond, BackendCloudSSD},
	}
	for _, dist := range []workload.Distribution{workload.Uniform, workload.Zipfian} {
		distName := "uniform"
		if dist == workload.Zipfian {
			distName = "zipfian(0.99)"
		}
		header(opt.Out, fmt.Sprintf("Figure 10: scale-out, %s 50:50 — Mops/s", distName))
		fmt.Fprintf(opt.Out, "%-12s", "#shards")
		for _, c := range configs {
			fmt.Fprintf(opt.Out, " %12s", c.name)
		}
		fmt.Fprintln(opt.Out)
		for _, n := range shardCounts {
			fmt.Fprintf(opt.Out, "%-12d", n)
			for _, c := range configs {
				res, err := runCluster(clusterSpec{
					shards: n, ckptEvery: c.ckpt, backend: c.backend,
					finder: metadata.FinderApproximate,
				}, runSpec{
					clients: n * 2, batch: 512, dist: dist, readFrac: 0.5,
					keys: opt.Keys, duration: opt.Duration, seed: 1,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(opt.Out, " %12.2f", res.MopsPerSec())
			}
			fmt.Fprintln(opt.Out)
		}
	}
	return nil
}

// Fig11 regenerates Figure 11 (Scaling up D-FASTER): throughput vs thread
// count on one shard for {No Chkpts, No DPR, DPR}. "No DPR" takes periodic
// uncoordinated checkpoints on the raw FasterKV without the DPR layer.
func Fig11(opt Options) error {
	opt = opt.withDefaults()
	threads := []int{1, 2, 4, 8, 16}
	if opt.Short {
		threads = []int{1, 2, 4}
	}
	header(opt.Out, "Figure 11: scale-up (1 shard, co-located threads), zipfian 50:50 — Mops/s")
	fmt.Fprintf(opt.Out, "%-10s %12s %12s %12s\n", "#threads", "No Chkpts", "No DPR", "DPR")
	for _, T := range threads {
		noChk, err := runRawKV(opt, T, 0)
		if err != nil {
			return err
		}
		noDPR, err := runRawKV(opt, T, 100*time.Millisecond)
		if err != nil {
			return err
		}
		// Full DPR: co-located clients, 100% local ops.
		res, err := runCluster(clusterSpec{
			shards: 1, ckptEvery: 100 * time.Millisecond,
			backend: BackendLocalSSD, finder: metadata.FinderApproximate,
		}, runSpec{
			clients: T, batch: 1, dist: workload.Zipfian, readFrac: 0.5,
			keys: opt.Keys, duration: opt.Duration,
			colocate: true, colocatePct: 1.0, seed: 2,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(opt.Out, "%-10d %12.2f %12.2f %12.2f\n", T, noChk, noDPR, res.MopsPerSec())
	}
	return nil
}

// runRawKV measures T threads hammering a bare FasterKV (no networking, no
// DPR), optionally with periodic uncoordinated checkpoints.
func runRawKV(opt Options, threads int, ckpt time.Duration) (float64, error) {
	dev := storage.NewSink("bench", storage.LocalSSDProfile)
	store := kv.NewStore(dev, kv.Config{BucketCount: 1 << 16})
	defer store.Close()
	if ckpt > 0 {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(ckpt)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					store.BeginCommit(store.CurrentVersion())
				}
			}
		}()
		defer func() { close(stop); wg.Wait() }()
	}
	res, err := measure(cell{threads: threads, duration: opt.Duration,
		newThread: func(g int, done dfaster.OpCallback) (thread, error) {
			sess := store.NewSession()
			gen := workload.NewGenerator(workload.Config{
				Keys: opt.Keys, ReadFraction: 0.5, Dist: workload.Zipfian,
				Theta: 0.99, Seed: int64(g) * 31,
			})
			step := func(int) error {
				op := gen.Next()
				if op.Kind == workload.OpRead {
					_, st, _ := sess.Read(op.Key[:], 0)
					done(result(st == kv.StatusError))
				} else {
					v := workload.Value8(op.Key)
					_, err := sess.Upsert(op.Key[:], v[:])
					done(result(err != nil))
				}
				return nil
			}
			return thread{step: step, finish: func() error { sess.Close(); return nil }}, nil
		}})
	return res.MopsPerSec(), err
}

// Fig12 regenerates Figure 12 (latency distributions): operation-completion
// and commit latency at b=1024 and b=64 (zipfian 50:50, 100ms checkpoints).
func Fig12(opt Options) error {
	opt = opt.withDefaults()
	shards := 4
	if opt.Short {
		shards = 2
	}
	for _, b := range []int{1024, 64} {
		res, err := runCluster(clusterSpec{
			shards: shards, ckptEvery: 100 * time.Millisecond,
			backend: BackendLocalSSD, finder: metadata.FinderApproximate,
		}, runSpec{
			clients: shards, batch: b, dist: workload.Zipfian, readFrac: 0.5,
			keys: opt.Keys, duration: opt.Duration,
			sampleEvery: 256, sampleCommit: true, seed: 3,
		})
		if err != nil {
			return err
		}
		header(opt.Out, fmt.Sprintf("Figure 12: latency distribution, b=%d", b))
		fmt.Fprintf(opt.Out, "operation latency: %s\n", res.OpLat.Summary())
		fmt.Fprintf(opt.Out, "commit    latency: %s\n", res.CommitLat)
	}
	return nil
}

// Fig13 regenerates Figure 13 (throughput-latency trade-off): sweep the
// batch size b and report (mean op latency, throughput) pairs.
func Fig13(opt Options) error {
	opt = opt.withDefaults()
	batches := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	if opt.Short {
		batches = []int{1, 8, 64, 512}
	}
	shards := 4
	if opt.Short {
		shards = 2
	}
	header(opt.Out, "Figure 13: throughput-latency trade-off (100ms checkpoints)")
	fmt.Fprintf(opt.Out, "%-8s %14s %14s %14s\n", "b", "Mops/s", "mean-lat", "p99-lat")
	for _, b := range batches {
		res, err := runCluster(clusterSpec{
			shards: shards, ckptEvery: 100 * time.Millisecond,
			backend: BackendLocalSSD, finder: metadata.FinderApproximate,
		}, runSpec{
			clients: shards * 2, batch: b, dist: workload.Zipfian, readFrac: 0.5,
			keys: opt.Keys, duration: opt.Duration, sampleEvery: 64, seed: 4,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(opt.Out, "%-8d %14.2f %14v %14v\n",
			b, res.MopsPerSec(), res.OpLat.Mean(), res.OpLat.Percentile(99))
	}
	return nil
}

// Fig14 regenerates Figure 14 (storage backend sensitivity): throughput vs
// checkpoint interval for null / local / cloud backends.
func Fig14(opt Options) error {
	opt = opt.withDefaults()
	intervals := []time.Duration{500, 250, 100, 50, 25}
	if opt.Short {
		intervals = []time.Duration{250, 50}
	}
	backends := []StorageBackend{BackendNull, BackendLocalSSD, BackendCloudSSD}
	shards := 4
	if opt.Short {
		shards = 2
	}
	header(opt.Out, "Figure 14: storage backend vs checkpoint interval — Mops/s")
	fmt.Fprintf(opt.Out, "%-12s", "interval")
	for _, b := range backends {
		fmt.Fprintf(opt.Out, " %12s", b)
	}
	fmt.Fprintln(opt.Out)
	for _, ivms := range intervals {
		iv := ivms * time.Millisecond
		fmt.Fprintf(opt.Out, "%-12v", iv)
		for _, b := range backends {
			res, err := runCluster(clusterSpec{
				shards: shards, ckptEvery: iv, backend: b,
				finder: metadata.FinderApproximate,
			}, runSpec{
				clients: shards * 2, batch: 512, dist: workload.Zipfian, readFrac: 0.5,
				keys: opt.Keys, duration: opt.Duration, seed: 5,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(opt.Out, " %12.2f", res.MopsPerSec())
		}
		fmt.Fprintln(opt.Out)
	}
	return nil
}

// Fig15 regenerates Figure 15 (co-location): throughput vs co-location
// percentage, across batch sizes.
func Fig15(opt Options) error {
	opt = opt.withDefaults()
	pcts := []float64{0, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0}
	batches := []int{1, 16, 256}
	if opt.Short {
		pcts = []float64{0, 0.50, 1.0}
		batches = []int{1, 64}
	}
	shards := 2
	header(opt.Out, "Figure 15: co-located execution — Mops/s")
	fmt.Fprintf(opt.Out, "%-12s", "co-located%")
	for _, b := range batches {
		fmt.Fprintf(opt.Out, " %12s", fmt.Sprintf("b=%d", b))
	}
	fmt.Fprintln(opt.Out)
	for _, p := range pcts {
		fmt.Fprintf(opt.Out, "%-12.0f", p*100)
		for _, b := range batches {
			res, err := runCluster(clusterSpec{
				shards: shards, ckptEvery: 100 * time.Millisecond,
				backend: BackendLocalSSD, finder: metadata.FinderApproximate,
			}, runSpec{
				clients: shards * 2, batch: b, dist: workload.Uniform, readFrac: 0.5,
				keys: opt.Keys, duration: opt.Duration,
				colocate: true, colocatePct: p, seed: 6,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(opt.Out, " %12.3f", res.MopsPerSec())
		}
		fmt.Fprintln(opt.Out)
	}
	return nil
}
