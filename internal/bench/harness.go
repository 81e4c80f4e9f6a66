// Package bench is the benchmark harness that regenerates every figure of
// the paper's evaluation (§7). Each FigNN function builds the system under
// test (D-FASTER, D-Redis, baselines), drives the YCSB workload with the
// paper's parameters (batch size b, window w, checkpoint cadence, storage
// backend), and prints the same rows/series the paper reports. Absolute
// numbers differ from the paper's 8-VM Azure testbed — everything here runs
// on one machine — but the shapes (who wins, by what factor, where the
// crossovers fall) are the reproduction target; EXPERIMENTS.md records both.
package bench

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dpr/internal/cluster"
	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/stats"
	"dpr/internal/storage"
	"dpr/internal/wire"
	"dpr/internal/workload"
)

// Options control every figure driver.
type Options struct {
	// Out receives the rendered tables.
	Out io.Writer
	// Duration is the measurement window per cell.
	Duration time.Duration
	// Keys is the keyspace size (paper: 250M; scaled down by default).
	Keys int64
	// Short trims the sweeps (fewer cells, same axes) for CI runs.
	Short bool
}

func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.Keys <= 0 {
		o.Keys = 1 << 18 // 256k keys: large enough for contention realism
	}
	return o
}

// StorageBackend names the three device configurations of §7.1.
type StorageBackend uint8

// Backends.
const (
	BackendNull StorageBackend = iota
	BackendLocalSSD
	BackendCloudSSD
)

func (b StorageBackend) String() string {
	switch b {
	case BackendLocalSSD:
		return "local-ssd"
	case BackendCloudSSD:
		return "cloud-ssd"
	default:
		return "null"
	}
}

// device returns a latency-modeled sink device (throughput benches never
// read back; see storage.SinkDevice).
func (b StorageBackend) device() storage.Device {
	switch b {
	case BackendLocalSSD:
		return storage.NewSink("local-ssd", storage.LocalSSDProfile)
	case BackendCloudSSD:
		return storage.NewSink("cloud-ssd", storage.CloudSSDProfile)
	default:
		return storage.NewSink("null", storage.NullProfile)
	}
}

// clusterSpec describes a D-FASTER cluster under test.
type clusterSpec struct {
	shards     int
	partitions int
	ckptEvery  time.Duration // 0 disables checkpoints ("No Chkpts")
	backend    StorageBackend
	finder     metadata.FinderKind
	memBudget  int64
	// eventual silences finder reporting: workers checkpoint on the timer
	// but no DPR cuts ever form — the "eventual recoverability" level of
	// §7.6 (persistence without coordinated guarantees).
	eventual bool
}

// eventualMeta wraps the metadata store, swallowing version reports so the
// cut never advances (uncoordinated checkpoints).
type eventualMeta struct{ *metadata.Store }

func (m eventualMeta) ReportVersion(core.WorkerID, core.Version, []core.Token) error { return nil }

var _ metadata.Service = eventualMeta{}

// benchCluster is a built cluster plus its control handles.
type benchCluster struct {
	spec    clusterSpec
	meta    *metadata.Store
	mgr     *cluster.Manager
	workers []*dfaster.Worker
}

func buildCluster(spec clusterSpec) (*benchCluster, error) {
	if spec.partitions == 0 {
		spec.partitions = 64 * spec.shards
	}
	bc := &benchCluster{
		spec: spec,
		meta: metadata.NewStore(metadata.Config{Finder: spec.finder}),
	}
	bc.mgr = cluster.NewManager(bc.meta)
	var svc metadata.Service = bc.meta
	if spec.eventual {
		svc = eventualMeta{bc.meta}
	}
	for i := 0; i < spec.shards; i++ {
		w, err := dfaster.NewWorker(dfaster.WorkerConfig{
			ID:                 core.WorkerID(i + 1),
			ListenAddr:         "127.0.0.1:0",
			CheckpointInterval: spec.ckptEvery,
			Partitions:         spec.partitions,
			Device:             spec.backend.device(),
			KV:                 kv.Config{BucketCount: 1 << 16, MemoryBudget: spec.memBudget},
		}, svc)
		if err != nil {
			bc.close()
			return nil, err
		}
		bc.workers = append(bc.workers, w)
		bc.mgr.Attach(w)
	}
	for p := 0; p < spec.partitions; p++ {
		if err := bc.workers[p%spec.shards].ClaimPartitions(uint64(p)); err != nil {
			bc.close()
			return nil, err
		}
	}
	return bc, nil
}

func (bc *benchCluster) close() {
	for _, w := range bc.workers {
		w.Stop()
	}
	bc.workers = nil
}

// runSpec describes one workload cell.
type runSpec struct {
	clients  int
	batch    int
	window   int
	dist     workload.Distribution
	readFrac float64
	keys     int64
	duration time.Duration
	// colocate runs each client co-located with a worker (round-robin) and
	// picks a key from the local keyspace with probability colocalePct.
	colocate    bool
	colocatePct float64
	// latency sampling (1 in sampleEvery ops; 0 disables).
	sampleEvery int
	// commit latency sampling (requires sampleEvery > 0).
	sampleCommit bool
	// strict selects strict DPR instead of relaxed (§5.4 ablation).
	strict bool
	seed   int64
}

// exactSamples collects raw duration samples for exact quantiles. The
// log-bucketed stats.Histogram steps ~12.5% per bucket, which is fine for
// operation latencies but useless for commit latency: every cadence-dominated
// run lands in the same bucket and two configurations that differ by 10x in
// reality print the identical bucket floor (the 57.344ms p50 artifact).
// Commit samples are sparse (1 in sampleEvery ops), so keeping them raw is
// cheap and the quantiles come out exact.
type exactSamples struct {
	mu sync.Mutex
	ds []time.Duration
}

// Record appends one sample.
func (s *exactSamples) Record(d time.Duration) {
	s.mu.Lock()
	s.ds = append(s.ds, d)
	s.mu.Unlock()
}

// N returns the sample count.
func (s *exactSamples) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ds)
}

// Quantile returns the exact p-quantile (p in [0,100], nearest rank) of the
// recorded samples, or 0 with no samples.
func (s *exactSamples) Quantile(p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ds) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(s.ds, func(i, j int) bool { return s.ds[i] < s.ds[j] }) {
		sort.Slice(s.ds, func(i, j int) bool { return s.ds[i] < s.ds[j] })
	}
	idx := int(p / 100 * float64(len(s.ds)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.ds) {
		idx = len(s.ds) - 1
	}
	return s.ds[idx]
}

// String renders the exact quantile summary line.
func (s *exactSamples) String() string {
	return fmt.Sprintf("p50=%v p90=%v p99=%v max=%v (n=%d)",
		s.Quantile(50).Truncate(time.Microsecond),
		s.Quantile(90).Truncate(time.Microsecond),
		s.Quantile(99).Truncate(time.Microsecond),
		s.Quantile(100).Truncate(time.Microsecond), s.N())
}

// runResult aggregates one cell's measurements.
type runResult struct {
	Ops       uint64
	Elapsed   time.Duration
	OpLat     *stats.Histogram
	CommitLat *stats.Histogram
	// CommitExact holds the raw commit-latency samples behind CommitLat;
	// report quantiles from here, not from the bucketed histogram.
	CommitExact *exactSamples
	ErrorCount  uint64
}

// MopsPerSec returns throughput in million operations per second.
func (r runResult) MopsPerSec() float64 {
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

// run drives spec.clients concurrent sessions against the cluster for the
// configured duration and aggregates completed-operation throughput plus
// optional latency samples.
func (bc *benchCluster) run(spec runSpec) (runResult, error) {
	if spec.window <= 0 {
		spec.window = 16 * spec.batch // the paper's default w = 16b
	}
	res := runResult{OpLat: &stats.Histogram{}, CommitLat: &stats.Histogram{}, CommitExact: &exactSamples{}}
	var completed, errs stats.Counter
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, spec.clients)

	for ci := 0; ci < spec.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var local *dfaster.Worker
			if spec.colocate {
				local = bc.workers[ci%len(bc.workers)]
			}
			client, err := dfaster.NewClient(dfaster.ClientConfig{
				Partitions:  bc.spec.partitions,
				BatchSize:   spec.batch,
				Window:      spec.window,
				Relaxed:     !spec.strict,
				LocalWorker: local,
			}, bc.meta)
			if err != nil {
				errCh <- err
				return
			}
			defer client.Close()
			gen := workload.NewGenerator(workload.Config{
				Keys:         spec.keys,
				ReadFraction: spec.readFrac,
				Dist:         spec.dist,
				Theta:        0.99,
				Seed:         spec.seed + int64(ci)*7919,
			})
			// Commit-latency bookkeeping: sampled (seq -> issue time).
			type sample struct {
				seq uint64
				at  time.Time
			}
			var commitSamples []sample
			lastCommitPoll := time.Now()

			var localKeys [][8]byte
			if spec.colocate {
				localKeys = localKeyset(local, bc.spec.partitions, spec.keys)
			}
			i := 0
			for {
				select {
				case <-stop:
					client.Drain()
					return
				default:
				}
				op := gen.Next()
				key := op.Key
				if spec.colocate {
					// Reclassify: with probability colocatePct the op
					// targets the co-located shard's keyspace (§7.3).
					if float64(i%100) < spec.colocatePct*100 && len(localKeys) > 0 {
						key = localKeys[int(keyIndex(op.Key))%len(localKeys)]
					}
				}
				kb := make([]byte, 8)
				copy(kb, key[:])
				var cb dfaster.OpCallback
				sampled := spec.sampleEvery > 0 && i%spec.sampleEvery == 0
				if sampled {
					start := time.Now()
					cb = func(r wire.OpResult) {
						if r.Status == wire.StatusError {
							errs.Add(1)
							return
						}
						completed.Add(1)
						res.OpLat.Record(time.Since(start))
					}
				} else {
					cb = func(r wire.OpResult) {
						if r.Status == wire.StatusError {
							errs.Add(1)
							return
						}
						completed.Add(1)
					}
				}
				var err error
				switch op.Kind {
				case workload.OpRead:
					err = client.Read(kb, cb)
				case workload.OpRMW:
					err = client.RMW(kb, 1, cb)
				default:
					v := workload.Value8(op.Key)
					err = client.Upsert(kb, v[:], cb)
				}
				if err != nil {
					errCh <- err
					return
				}
				if sampled && spec.sampleCommit {
					commitSamples = append(commitSamples, sample{seq: client.LastSeq(), at: time.Now()})
				}
				// Resolve commit samples periodically against the prefix the
				// piggybacked and pushed cuts have advanced; the loop neither
				// flushes nor asks the finder, which would perturb the cell.
				if spec.sampleCommit && time.Since(lastCommitPoll) > 2*time.Millisecond {
					now := time.Now()
					lastCommitPoll = now
					p, _ := client.Committed()
					keep := commitSamples[:0]
					for _, s := range commitSamples {
						if s.seq <= p {
							res.CommitLat.Record(now.Sub(s.at))
							res.CommitExact.Record(now.Sub(s.at))
						} else {
							keep = append(keep, s)
						}
					}
					commitSamples = keep
				}
				i++
			}
		}(ci)
	}

	// Warm up (connections, caches, version fast-forwards), then measure a
	// steady-state window.
	warmup := spec.duration / 5
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
	startErrs := errs.Load()
	if err := wait(spec.duration); err != nil {
		return res, err
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		return res, err
	default:
	}
	res.Ops = completed.Load() - startOps
	res.ErrorCount = errs.Load() - startErrs
	res.Elapsed = spec.duration
	return res, nil
}

// runWithMode runs the spec under relaxed or strict DPR.
func (bc *benchCluster) runWithMode(spec runSpec, relaxed bool) (runResult, error) {
	spec.strict = !relaxed
	return bc.run(spec)
}

func keyIndex(k [8]byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(k[i]) << (8 * i)
	}
	return v
}

// localKeyset enumerates up to 4096 keys owned by the given worker, used by
// the co-location sweep to draw "local" operations.
func localKeyset(w *dfaster.Worker, partitions int, keys int64) [][8]byte {
	var out [][8]byte
	for i := int64(0); i < keys && len(out) < 4096; i++ {
		k := workload.KeyAt(i)
		if w.Owns(dfaster.PartitionOf(k[:], partitions)) {
			out = append(out, k)
		}
	}
	return out
}

// preload inserts every key once so reads hit (the YCSB load phase).
func (bc *benchCluster) preload(keys int64, batch int) error {
	client, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions: bc.spec.partitions,
		BatchSize:  batch,
		Window:     batch * 64,
		Relaxed:    true,
	}, bc.meta)
	if err != nil {
		return err
	}
	defer client.Close()
	for i := int64(0); i < keys; i++ {
		k := workload.KeyAt(i)
		v := workload.Value8(k)
		if err := client.Upsert(k[:], v[:], nil); err != nil {
			return err
		}
	}
	return client.Drain()
}

// header prints a figure banner.
func header(out io.Writer, title string) {
	fmt.Fprintf(out, "\n== %s ==\n", title)
}
