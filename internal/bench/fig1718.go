package bench

import (
	"fmt"
	"sync"
	"time"

	"dpr/internal/baseline"
	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/dredis"
	"dpr/internal/metadata"
	"dpr/internal/redisclone"
	"dpr/internal/stats"
	"dpr/internal/storage"
	"dpr/internal/wire"
	"dpr/internal/workload"
)

// redisTarget abstracts the three systems of Figures 17/18: plain Redis,
// Redis behind a pass-through proxy, and D-Redis (Redis + libDPR).
type redisTarget struct {
	name  string
	build func(shards int) (meta *metadata.Store, stop func(), err error)
}

func redisTargets() []redisTarget {
	return []redisTarget{
		{name: "Redis", build: buildPlainRedis(false)},
		{name: "D-Redis", build: buildDRedis},
		{name: "Redis+Proxy", build: buildPlainRedis(true)},
	}
}

// buildPlainRedis starts `shards` plain redisclone servers (optionally each
// behind a pass-through proxy) and registers them in a metadata store so the
// standard client can route to them.
func buildPlainRedis(withProxy bool) func(int) (*metadata.Store, func(), error) {
	return func(shards int) (*metadata.Store, func(), error) {
		meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
		var closers []func()
		stop := func() {
			for _, c := range closers {
				c()
			}
		}
		for i := 0; i < shards; i++ {
			srv, err := baseline.NewPlainServer("127.0.0.1:0", storage.NewSink("r", storage.NullProfile),
				fmt.Sprintf("plain-%d", i), redisclone.AOFOff)
			if err != nil {
				stop()
				return nil, nil, err
			}
			closers = append(closers, srv.Stop)
			addr := srv.Addr()
			if withProxy {
				// Fault-free: a plain byte-level pass-through hop.
				px, err := wire.NewFaultProxy(addr)
				if err != nil {
					stop()
					return nil, nil, err
				}
				closers = append(closers, px.Close)
				addr = px.Addr()
			}
			if err := meta.RegisterWorker(core.WorkerID(i+1), addr); err != nil {
				stop()
				return nil, nil, err
			}
		}
		assignPartitions(meta, shards)
		return meta, stop, nil
	}
}

func buildDRedis(shards int) (*metadata.Store, func(), error) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	var closers []func()
	stop := func() {
		for _, c := range closers {
			c()
		}
	}
	for i := 0; i < shards; i++ {
		w, err := dredis.NewWorker(dredis.WorkerConfig{
			ID:                 core.WorkerID(i + 1),
			ListenAddr:         "127.0.0.1:0",
			CheckpointInterval: 250 * time.Millisecond, // §7.5: sparse commits
			Device:             storage.NewSink("dr", storage.NullProfile),
		}, meta)
		if err != nil {
			stop()
			return nil, nil, err
		}
		closers = append(closers, w.Stop)
	}
	assignPartitions(meta, shards)
	return meta, stop, nil
}

const redisPartitions = 64

func assignPartitions(meta *metadata.Store, shards int) {
	for p := 0; p < redisPartitions; p++ {
		meta.SetOwner(uint64(p), core.WorkerID(p%shards+1))
	}
}

// runRedisCell drives the standard client against whatever the metadata
// store routes to.
func runRedisCell(opt Options, meta *metadata.Store, clients, b, w int, sampleEvery int) (runResult, error) {
	res := runResult{OpLat: &stats.Histogram{}, CommitLat: &stats.Histogram{}, CommitExact: &exactSamples{}}
	var completed stats.Counter
	stop := make(chan struct{})
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			client, err := dfaster.NewClient(dfaster.ClientConfig{
				Partitions: redisPartitions, BatchSize: b, Window: w, Relaxed: true,
			}, meta)
			if err != nil {
				errCh <- err
				return
			}
			defer client.Close()
			gen := workload.NewGenerator(workload.Config{
				Keys: opt.Keys, ReadFraction: 0.5, Dist: workload.Uniform, Seed: int64(ci) * 101,
			})
			i := 0
			for {
				select {
				case <-stop:
					client.Drain()
					return
				default:
				}
				op := gen.Next()
				var cb dfaster.OpCallback
				if sampleEvery > 0 && i%sampleEvery == 0 {
					start := time.Now()
					cb = func(r wire.OpResult) {
						completed.Add(1)
						res.OpLat.Record(time.Since(start))
					}
				} else {
					cb = func(r wire.OpResult) { completed.Add(1) }
				}
				var err error
				if op.Kind == workload.OpRead {
					err = client.Read(op.Key[:], cb)
				} else {
					v := workload.Value8(op.Key)
					err = client.Upsert(op.Key[:], v[:], cb)
				}
				if err != nil {
					errCh <- err
					return
				}
				i++
			}
		}(ci)
	}
	warmup := opt.Duration / 5
	if warmup > 300*time.Millisecond {
		warmup = 300 * time.Millisecond
	}
	wait := func(d time.Duration) error {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case err := <-errCh:
			close(stop)
			wg.Wait()
			return err
		case <-timer.C:
			return nil
		}
	}
	if err := wait(warmup); err != nil {
		return res, err
	}
	startOps := completed.Load()
	if err := wait(opt.Duration); err != nil {
		return res, err
	}
	close(stop)
	wg.Wait()
	res.Ops = completed.Load() - startOps
	res.Elapsed = opt.Duration
	return res, nil
}

// Fig17 regenerates Figure 17 (D-Redis vs Redis throughput), saturated
// (w=8192, b=1024) and unsaturated (w=1024, b=16), across shard counts.
func Fig17(opt Options) error {
	opt = opt.withDefaults()
	shardCounts := []int{2, 4, 8}
	if opt.Short {
		shardCounts = []int{2, 4}
	}
	cells := []struct {
		name string
		w, b int
	}{
		{"saturated (w=8192,b=1024)", 8192, 1024},
		{"unsaturated (w=1024,b=16)", 1024, 16},
	}
	for _, cell := range cells {
		header(opt.Out, fmt.Sprintf("Figure 17: %s — Mops/s", cell.name))
		fmt.Fprintf(opt.Out, "%-10s", "#shards")
		for _, tgt := range redisTargets() {
			fmt.Fprintf(opt.Out, " %14s", tgt.name)
		}
		fmt.Fprintln(opt.Out)
		for _, n := range shardCounts {
			fmt.Fprintf(opt.Out, "%-10d", n)
			for _, tgt := range redisTargets() {
				meta, stopFn, err := tgt.build(n)
				if err != nil {
					return err
				}
				res, err := runRedisCell(opt, meta, n*2, cell.b, cell.w, 0)
				stopFn()
				if err != nil {
					return err
				}
				fmt.Fprintf(opt.Out, " %14.3f", res.MopsPerSec())
			}
			fmt.Fprintln(opt.Out)
		}
	}
	return nil
}

// Fig18 regenerates Figure 18 (latency distributions of Redis, D-Redis,
// Redis+Proxy) in the unsaturated configuration.
func Fig18(opt Options) error {
	opt = opt.withDefaults()
	shards := 4
	if opt.Short {
		shards = 2
	}
	header(opt.Out, "Figure 18: latency distributions (unsaturated, w=1024, b=16)")
	for _, tgt := range redisTargets() {
		meta, stopFn, err := tgt.build(shards)
		if err != nil {
			return err
		}
		res, err := runRedisCell(opt, meta, shards, 16, 1024, 64)
		stopFn()
		if err != nil {
			return err
		}
		fmt.Fprintf(opt.Out, "%-14s %s\n", tgt.name, res.OpLat.Summary())
	}
	return nil
}
