package bench

import (
	"fmt"
	"time"

	"dpr/internal/baseline"
	"dpr/internal/dfaster"
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
	res, err := measure(cell{threads: threads, duration: opt.Duration,
		newThread: func(g int, done dfaster.OpCallback) (thread, error) {
			gen := workload.NewGenerator(workload.Config{
				Keys: opt.Keys, ReadFraction: 0.5, Dist: workload.Uniform, Seed: int64(g) * 3,
			})
			step := func(int) error {
				op := gen.Next()
				if op.Kind == workload.OpRead {
					store.Get(op.Key[:])
					done(result(false))
				} else {
					v := workload.Value8(op.Key)
					done(result(store.Put(op.Key[:], v[:]) != nil))
				}
				return nil
			}
			return thread{step: step, finish: func() error { return nil }}, nil
		}})
	return res.MopsPerSec(), true, err
}

// runDRedisLevel drives redisclone over the network at each level:
// None = no persistence, Eventual = background AOF, DPR = full D-Redis,
// Sync = AOF with fsync-per-write (Redis appendfsync always).
func runDRedisLevel(opt Options, level string) (float64, bool, error) {
	spec := redisSpec{shards: 2, kind: redisPlain, backend: BackendLocalSSD}
	switch level {
	case levelDPR:
		spec.kind, spec.ckptEvery = redisDPR, 100*time.Millisecond
	case levelEventual:
		spec.aof = redisclone.AOFEverySec
	case levelSync:
		spec.aof = redisclone.AOFAlways
	}
	res, err := runRedis(spec, runSpec{clients: 4, batch: 64, window: 1024, keys: opt.Keys, duration: opt.Duration})
	return res.MopsPerSec(), true, err
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
	res, err := runCluster(spec, runSpec{
		clients: 4, batch: 512, dist: workload.Uniform, readFrac: 0.5,
		keys: opt.Keys, duration: opt.Duration, seed: 9,
	})
	return res.MopsPerSec(), true, err
}
