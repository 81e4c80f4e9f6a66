package bench

import (
	"fmt"
	"sync"
	"time"

	"dpr/internal/baseline"
	"dpr/internal/core"
	"dpr/internal/dredis"
	"dpr/internal/metadata"
	"dpr/internal/redisclone"
	"dpr/internal/storage"
	"dpr/internal/workload"
)

// Recoverability levels of §7.6.
const (
	levelNone     = "None"
	levelEventual = "Eventual"
	levelDPR      = "DPR"
	levelSync     = "Sync"
)

var levels = []string{levelSync, levelDPR, levelEventual, levelNone}

// Fig19 regenerates Figure 19 (throughput impact of recoverability
// guarantees) on the three systems: a Cassandra-like LSM baseline, D-Redis,
// and D-FASTER. Cells the system does not support print N/A, matching the
// paper (Cassandra: no None/DPR; D-FASTER: no Sync).
func Fig19(opt Options) error {
	opt = opt.withDefaults()
	header(opt.Out, "Figure 19: throughput vs recoverability level — Mops/s (uniform 50:50)")
	fmt.Fprintf(opt.Out, "%-12s", "level")
	for _, sys := range []string{"Cassandra-like", "D-Redis", "D-FASTER"} {
		fmt.Fprintf(opt.Out, " %16s", sys)
	}
	fmt.Fprintln(opt.Out)
	for _, level := range levels {
		fmt.Fprintf(opt.Out, "%-12s", level)
		for _, run := range []func(Options, string) (float64, bool, error){
			runCassandraLevel, runDRedisLevel, runDFasterLevel,
		} {
			tput, supported, err := run(opt, level)
			if err != nil {
				return err
			}
			if !supported {
				fmt.Fprintf(opt.Out, " %16s", "N/A")
			} else {
				fmt.Fprintf(opt.Out, " %16.3f", tput)
			}
		}
		fmt.Fprintln(opt.Out)
	}
	return nil
}

// runCassandraLevel drives the LSM baseline in-process with T threads.
func runCassandraLevel(opt Options, level string) (float64, bool, error) {
	var mode baseline.CommitLogMode
	switch level {
	case levelEventual:
		mode = baseline.SyncPeriodic
	case levelSync:
		mode = baseline.SyncGroup
	default:
		return 0, false, nil // None and DPR are N/A, as in the paper
	}
	dev := storage.NewSink("cl", storage.LocalSSDProfile)
	store := baseline.New(baseline.Config{Device: dev, Mode: mode, GroupWindow: 500 * time.Microsecond})
	defer store.Close()
	threads := 8
	if opt.Short {
		threads = 4
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	counts := make([]uint64, threads)
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := workload.NewGenerator(workload.Config{
				Keys: opt.Keys, ReadFraction: 0.5, Dist: workload.Uniform, Seed: int64(g) * 3,
			})
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := gen.Next()
				if op.Kind == workload.OpRead {
					store.Get(op.Key[:])
				} else {
					v := workload.Value8(op.Key)
					store.Put(op.Key[:], v[:])
				}
				counts[g]++
			}
		}(g)
	}
	time.Sleep(opt.Duration)
	close(stop)
	wg.Wait()
	var total uint64
	for _, c := range counts {
		total += c
	}
	return float64(total) / opt.Duration.Seconds() / 1e6, true, nil
}

// runDRedisLevel drives redisclone over the network at each level:
// None = no persistence, Eventual = background AOF, DPR = full D-Redis,
// Sync = AOF with fsync-per-write (Redis appendfsync always).
func runDRedisLevel(opt Options, level string) (float64, bool, error) {
	shards := 2
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	var closers []func()
	stopAll := func() {
		for _, c := range closers {
			c()
		}
	}
	for i := 0; i < shards; i++ {
		var err error
		switch level {
		case levelDPR:
			var w *dredis.Worker
			w, err = dredis.NewWorker(dredis.WorkerConfig{
				ID:                 core.WorkerID(i + 1),
				ListenAddr:         "127.0.0.1:0",
				CheckpointInterval: 100 * time.Millisecond,
				Device:             storage.NewSink("dr", storage.LocalSSDProfile),
			}, meta)
			if err == nil {
				closers = append(closers, w.Stop)
			}
		default:
			aof := redisclone.AOFOff
			switch level {
			case levelEventual:
				aof = redisclone.AOFEverySec
			case levelSync:
				aof = redisclone.AOFAlways
			}
			var srv *baseline.PlainServer
			srv, err = baseline.NewPlainServer("127.0.0.1:0",
				storage.NewSink("r", storage.LocalSSDProfile), fmt.Sprintf("p-%d", i), aof)
			if err == nil {
				closers = append(closers, srv.Stop)
				err = meta.RegisterWorker(core.WorkerID(i+1), srv.Addr())
			}
		}
		if err != nil {
			stopAll()
			return 0, true, err
		}
	}
	assignPartitions(meta, shards)
	res, err := runRedisCell(opt, meta, shards*2, 64, 1024, 0)
	stopAll()
	if err != nil {
		return 0, true, err
	}
	return res.MopsPerSec(), true, nil
}

// runDFasterLevel drives D-FASTER at each level: None = no checkpoints,
// Eventual = uncoordinated checkpoints (finder reporting disabled),
// DPR = the full protocol. Sync is N/A, as in the paper.
func runDFasterLevel(opt Options, level string) (float64, bool, error) {
	if level == levelSync {
		return 0, false, nil
	}
	spec := clusterSpec{
		shards: 2, backend: BackendLocalSSD, finder: metadata.FinderApproximate,
	}
	switch level {
	case levelNone:
		spec.ckptEvery = 0
	case levelEventual:
		// Uncoordinated checkpoints: data persists but no cuts ever form.
		spec.ckptEvery = 100 * time.Millisecond
		spec.eventual = true
	default:
		spec.ckptEvery = 100 * time.Millisecond
	}
	bc, err := buildCluster(spec)
	if err != nil {
		return 0, true, err
	}
	defer bc.close()
	res, err := bc.run(runSpec{
		clients: 4, batch: 512, dist: workload.Uniform, readFrac: 0.5,
		keys: opt.Keys, duration: opt.Duration, seed: 9,
	})
	if err != nil {
		return 0, true, err
	}
	return res.MopsPerSec(), true, nil
}
