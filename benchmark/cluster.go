package main

import (
	"fmt"
	"sync"

	"dpr/internal/cluster"
	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/dredis"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/storage"
	"dpr/internal/workload"
)

// testCluster is the in-process system under test: a metadata store, a
// cluster manager and two shard workers on loopback TCP, built through the
// public constructors only. With a tracer, each shard's device and the
// metadata service handed to workers and clients are wrapped in the timing
// decorators; the cluster manager always talks to the store itself.
type testCluster struct {
	spec  *workloadSpec
	store *metadata.Store
	svc   metadata.Service
	mgr   *cluster.Manager

	fworkers []*dfaster.Worker
	rworkers []*dredis.Worker

	meta *metaTrace  // nil when untraced
	devs []*devTrace // nil when untraced
}

func kvConfig() kv.Config { return kv.Config{BucketCount: bucketCount} }

func workerID(shard int) core.WorkerID { return core.WorkerID(shard + 1) }

// shardOf mirrors the partition assignment below: partition p lives on shard
// p mod shards. The load generator needs it to know which batch an operation
// will travel in.
func shardOf(key []byte) int {
	return int(dfaster.PartitionOf(key, partitions) % shards)
}

func buildCluster(spec *workloadSpec, tr *tracer) (*testCluster, error) {
	c := &testCluster{
		spec:  spec,
		store: metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate}),
	}
	c.svc = c.store
	if tr != nil {
		c.meta = newMetaTrace(c.store, tr)
		c.svc = c.meta
	}
	c.mgr = cluster.NewManager(c.store)
	for i := 0; i < shards; i++ {
		var dev storage.Device = storage.NewSink("local-ssd", storage.LocalSSDProfile)
		if tr != nil {
			dt := &devTrace{Device: dev, tr: tr, writes: make([]interval, 0, 1<<16)}
			c.devs = append(c.devs, dt)
			dev = dt
		}
		var err error
		switch spec.store {
		case storeDredis:
			var w *dredis.Worker
			w, err = dredis.NewWorker(dredis.WorkerConfig{
				ID:                 workerID(i),
				ListenAddr:         "127.0.0.1:0",
				CheckpointInterval: ckptInterval,
				Device:             dev,
			}, c.svc)
			if err == nil {
				c.rworkers = append(c.rworkers, w)
				c.mgr.Attach(w)
			}
		default:
			var w *dfaster.Worker
			w, err = dfaster.NewWorker(dfaster.WorkerConfig{
				ID:                 workerID(i),
				ListenAddr:         "127.0.0.1:0",
				CheckpointInterval: ckptInterval,
				Partitions:         partitions,
				Device:             dev,
				KV:                 kvConfig(),
			}, c.svc)
			if err == nil {
				c.fworkers = append(c.fworkers, w)
				c.mgr.Attach(w)
			}
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start worker %d: %w", i+1, err)
		}
	}
	for p := uint64(0); p < partitions; p++ {
		var err error
		if spec.store == storeDredis {
			// dredis workers serve whatever is routed to them; ownership
			// lives in the metadata table alone.
			err = c.store.SetOwner(p, workerID(int(p%shards)))
		} else {
			err = c.fworkers[p%shards].ClaimPartitions(p)
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("assign partition %d: %w", p, err)
		}
	}
	return c, nil
}

func (c *testCluster) close() {
	for _, w := range c.fworkers {
		w.Stop()
	}
	for _, w := range c.rworkers {
		w.Stop()
	}
	c.fworkers, c.rworkers = nil, nil
}

// preload upserts every key once with workload.Value8(key) — the YCSB load
// phase — from one loader session per benchmark session, then waits for the
// writes to complete.
func (c *testCluster) preload() error {
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for li := 0; li < sessions; li++ {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			client, err := dfaster.NewClient(dfaster.ClientConfig{
				Partitions: partitions, BatchSize: 64, Window: 64 * 64, Relaxed: true,
			}, c.svc)
			if err != nil {
				errs[li] = err
				return
			}
			defer client.Close()
			// Keys and values must stay put until their batch is encoded;
			// one flat array per loader outlives every batch.
			n := int(preloadKeys) / sessions
			buf := make([][2][8]byte, n)
			for i := 0; i < n; i++ {
				k := workload.KeyAt(int64(li*n + i))
				buf[i] = [2][8]byte{k, workload.Value8(k)}
				if err := client.Upsert(buf[i][0][:], buf[i][1][:], nil); err != nil {
					errs[li] = err
					return
				}
			}
			errs[li] = client.Drain()
		}(li)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}
