package bench

import (
	"fmt"
	"time"

	"dpr/internal/baseline"
	"dpr/internal/core"
	"dpr/internal/dredis"
	"dpr/internal/metadata"
	"dpr/internal/redisclone"
	"dpr/internal/wire"
	"dpr/internal/workload"
)

// The Redis-family systems of Figures 17-19, named as the tables print them.
const (
	redisPlain = "Redis"       // plain redisclone servers
	redisDPR   = "D-Redis"     // redisclone + libDPR
	redisProxy = "Redis+Proxy" // plain servers, each behind a pass-through proxy
)

// redisSpec describes a Redis-family cluster.
type redisSpec struct {
	shards    int
	kind      string
	aof       redisclone.AOFMode // plain servers only
	backend   StorageBackend
	ckptEvery time.Duration // D-Redis only
}

const redisPartitions = 64

// sparseCkpt is D-Redis's checkpoint interval in Figures 17 and 18 (§7.5:
// sparse commits).
const sparseCkpt = 250 * time.Millisecond

// buildRedis starts spec.shards servers of spec.kind and registers them in a
// metadata store, so the D-FASTER client routes to them.
func buildRedis(spec redisSpec) (*target, error) {
	t := &target{
		meta:       metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate}),
		partitions: redisPartitions,
	}
	for i := 0; i < spec.shards; i++ {
		id := core.WorkerID(i + 1)
		if spec.kind == redisDPR {
			w, err := dredis.NewWorker(dredis.WorkerConfig{
				ID:                 id,
				ListenAddr:         "127.0.0.1:0",
				CheckpointInterval: spec.ckptEvery,
				Device:             spec.backend.device(),
			}, t.meta)
			if err != nil {
				t.close()
				return nil, err
			}
			t.stops = append(t.stops, w.Stop)
			continue
		}
		srv, err := baseline.NewPlainServer("127.0.0.1:0", spec.backend.device(), fmt.Sprintf("plain-%d", i), spec.aof)
		if err != nil {
			t.close()
			return nil, err
		}
		t.stops = append(t.stops, srv.Stop)
		addr := srv.Addr()
		if spec.kind == redisProxy {
			// Fault-free: a plain byte-level pass-through hop.
			px, err := wire.NewFaultProxy(addr)
			if err != nil {
				t.close()
				return nil, err
			}
			t.stops = append(t.stops, px.Close)
			addr = px.Addr()
		}
		if err := t.meta.RegisterWorker(id, addr); err != nil {
			t.close()
			return nil, err
		}
	}
	for p := 0; p < redisPartitions; p++ {
		t.meta.SetOwner(uint64(p), core.WorkerID(p%spec.shards+1))
	}
	return t, nil
}

// runRedis runs a uniform 50:50 cell of spec against a fresh Redis-family
// cluster.
func runRedis(spec redisSpec, run runSpec) (runResult, error) {
	t, err := buildRedis(spec)
	if err != nil {
		return runResult{}, err
	}
	defer t.close()
	run.dist, run.readFrac = workload.Uniform, 0.5
	return t.run(run)
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
	kinds := []string{redisPlain, redisDPR, redisProxy}
	for _, cell := range cells {
		header(opt.Out, fmt.Sprintf("Figure 17: %s — Mops/s", cell.name))
		fmt.Fprintf(opt.Out, "%-10s", "#shards")
		for _, kind := range kinds {
			fmt.Fprintf(opt.Out, " %14s", kind)
		}
		fmt.Fprintln(opt.Out)
		for _, n := range shardCounts {
			fmt.Fprintf(opt.Out, "%-10d", n)
			for _, kind := range kinds {
				res, err := runRedis(redisSpec{shards: n, kind: kind, ckptEvery: sparseCkpt},
					runSpec{clients: n * 2, batch: cell.b, window: cell.w, keys: opt.Keys, duration: opt.Duration})
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
	for _, kind := range []string{redisPlain, redisDPR, redisProxy} {
		res, err := runRedis(redisSpec{shards: shards, kind: kind, ckptEvery: sparseCkpt},
			runSpec{clients: shards, batch: 16, window: 1024, keys: opt.Keys, duration: opt.Duration, sampleEvery: 64})
		if err != nil {
			return err
		}
		fmt.Fprintf(opt.Out, "%-14s %s\n", kind, res.OpLat.Summary())
	}
	return nil
}
