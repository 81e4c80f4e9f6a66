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
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
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
	shards    int
	ckptEvery time.Duration // 0 disables checkpoints ("No Chkpts")
	backend   StorageBackend
	finder    metadata.FinderKind
	// eventual silences finder reporting: workers checkpoint on the timer
	// but no DPR cuts ever form — the "eventual recoverability" level of
	// §7.6 (persistence without coordinated guarantees).
	eventual bool
}

// eventualMeta wraps the metadata store, swallowing version reports so the
// cut never advances (uncoordinated checkpoints).
type eventualMeta struct{ *metadata.Store }

func (m eventualMeta) ReportVersion(core.WorkerID, core.Version, []core.Token) error { return nil }

// target is what a cell's client sessions run against: the metadata store
// that routes them to workers, the partition count, the D-FASTER workers a
// co-located session may attach to (none for Redis), and what stops it all.
type target struct {
	meta       *metadata.Store
	partitions int
	workers    []*dfaster.Worker
	stops      []func()
}

func (t *target) close() {
	for _, stop := range t.stops {
		stop()
	}
	t.stops = nil
}

// benchCluster is a built D-FASTER cluster plus its recovery manager.
type benchCluster struct {
	target
	mgr *cluster.Manager
}

func buildCluster(spec clusterSpec) (*benchCluster, error) {
	partitions := 64 * spec.shards
	meta := metadata.NewStore(metadata.Config{Finder: spec.finder})
	bc := &benchCluster{target: target{meta: meta, partitions: partitions}, mgr: cluster.NewManager(meta)}
	var svc metadata.Service = meta
	if spec.eventual {
		svc = eventualMeta{meta}
	}
	for i := 0; i < spec.shards; i++ {
		w, err := dfaster.NewWorker(dfaster.WorkerConfig{
			ID:                 core.WorkerID(i + 1),
			ListenAddr:         "127.0.0.1:0",
			CheckpointInterval: spec.ckptEvery,
			Partitions:         partitions,
			Device:             spec.backend.device(),
			KV:                 kv.Config{BucketCount: 1 << 16},
		}, svc)
		if err != nil {
			bc.close()
			return nil, err
		}
		bc.workers = append(bc.workers, w)
		bc.stops = append(bc.stops, w.Stop)
		bc.mgr.Attach(w)
	}
	for p := 0; p < partitions; p++ {
		if err := bc.workers[p%spec.shards].ClaimPartitions(uint64(p)); err != nil {
			bc.close()
			return nil, err
		}
	}
	return bc, nil
}

// runCluster runs a cell of run against a fresh D-FASTER cluster of spec.
func runCluster(spec clusterSpec, run runSpec) (runResult, error) {
	bc, err := buildCluster(spec)
	if err != nil {
		return runResult{}, err
	}
	defer bc.close()
	return bc.run(run)
}

// runSpec describes one cell of D-FASTER client sessions.
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

// runResult aggregates one cell's measurements: the operations that
// completed and failed in the measured window, and the latency samples.
type runResult struct {
	Ops        uint64
	ErrorCount uint64
	Elapsed    time.Duration
	OpLat      *stats.Histogram
	CommitLat  *stats.Samples
}

// MopsPerSec returns throughput in million operations per second.
func (r runResult) MopsPerSec() float64 {
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

// thread is one client thread of a closed-loop cell. step issues the
// thread's i'th operation, whose outcome goes to the done callback the
// thread was built with, before step returns or later from another
// goroutine; finish waits for what is still in flight and releases the
// thread's session.
type thread struct {
	step   func(i int) error
	finish func() error
}

// cell is one closed-loop measurement.
type cell struct {
	threads int
	// duration is the measured window; a warm-up of a fifth of it, at most
	// 300 ms, runs first (connections, caches, version fast-forwards).
	duration  time.Duration
	newThread func(ci int, done dfaster.OpCallback) (thread, error)
	// window, if set, runs in place of waiting out duration (Fig 16's
	// failure schedule); wait sleeps, or returns a thread's error early.
	window func(wait func(time.Duration) error) error
}

// tally counts one thread's outcomes. Each thread has its own, on its own
// cache line, so threads that run an operation in ~100 ns do not contend on
// the count; measure sums them at the window's edges.
type tally struct {
	ok, failed atomic.Uint64
	_          [48]byte
}

func (t *tally) done(r wire.OpResult) {
	if r.Status == wire.StatusError {
		t.failed.Add(1)
	} else {
		t.ok.Add(1)
	}
}

// result is a synchronous operation's outcome as a done callback takes it.
func result(failed bool) wire.OpResult {
	if failed {
		return wire.OpResult{Status: wire.StatusError}
	}
	return wire.OpResult{}
}

func sum(ts []tally) (ok, failed uint64) {
	for i := range ts {
		ok += ts[i].ok.Load()
		failed += ts[i].failed.Load()
	}
	return ok, failed
}

// measure runs c: every thread issues operations back to back on its own
// goroutine through warm-up, the measured window, stop and drain. It is the
// one loop of the harness: it alone decides what is measured, and it joins
// every thread on every path. It returns the operations that completed and
// failed in the window and the first error a thread met.
func measure(c cell) (runResult, error) {
	tallies := make([]tally, c.threads)
	stop := make(chan struct{})
	errs := make(chan error, c.threads) // at most one per thread
	var wg sync.WaitGroup
	for ci := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.drive(ci, tallies[ci].done, stop); err != nil {
				errs <- err
			}
		}()
	}
	wait := func(d time.Duration) error {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case err := <-errs:
			return err
		case <-timer.C:
			return nil
		}
	}
	var res runResult
	err := wait(min(c.duration/5, 300*time.Millisecond))
	if err == nil {
		ok0, failed0 := sum(tallies)
		start := time.Now()
		if c.window != nil {
			err = c.window(wait)
		} else {
			err = wait(c.duration)
		}
		res.Elapsed = time.Since(start)
		ok, failed := sum(tallies)
		res.Ops, res.ErrorCount = ok-ok0, failed-failed0
	}
	close(stop)
	wg.Wait()
	if err == nil {
		select {
		case err = <-errs:
		default:
		}
	}
	return res, err
}

// drive runs thread ci until stop, or until one of its steps fails.
func (c cell) drive(ci int, done dfaster.OpCallback, stop <-chan struct{}) error {
	th, err := c.newThread(ci, done)
	if err != nil {
		return err
	}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return th.finish()
		default:
		}
		if err := th.step(i); err != nil {
			th.finish() // the step's error is the one to report
			return err
		}
	}
}

// run drives spec.clients D-FASTER client sessions against t.
func (t *target) run(spec runSpec) (runResult, error) {
	if spec.window <= 0 {
		spec.window = 16 * spec.batch // the paper's default w = 16b
	}
	opLat, commitLat := &stats.Histogram{}, &stats.Samples{}
	res, err := measure(cell{threads: spec.clients, duration: spec.duration,
		newThread: func(ci int, done dfaster.OpCallback) (thread, error) {
			return t.session(spec, ci, done, opLat, commitLat)
		}})
	res.OpLat, res.CommitLat = opLat, commitLat
	return res, err
}

// session is client ci of a run: one D-FASTER client issuing spec's
// workload, sampling operation and commit latency into opLat and commitLat.
func (t *target) session(spec runSpec, ci int, done dfaster.OpCallback, opLat *stats.Histogram, commitLat *stats.Samples) (thread, error) {
	var local *dfaster.Worker
	var localKeys [][8]byte
	if spec.colocate {
		local = t.workers[ci%len(t.workers)]
		localKeys = localKeyset(local, t.partitions, spec.keys)
	}
	client, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions:  t.partitions,
		BatchSize:   spec.batch,
		Window:      spec.window,
		Relaxed:     !spec.strict,
		LocalWorker: local,
	}, t.meta)
	if err != nil {
		return thread{}, err
	}
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
	step := func(i int) error {
		op := gen.Next()
		key := op.Key
		// Reclassify: with probability colocatePct the op targets the
		// co-located shard's keyspace (§7.3).
		if spec.colocate && float64(i%100) < spec.colocatePct*100 && len(localKeys) > 0 {
			key = localKeys[binary.LittleEndian.Uint64(op.Key[:])%uint64(len(localKeys))]
		}
		kb := key[:] // key is this call's own: the client keeps kb until the batch is sent
		cb := done
		sampled := spec.sampleEvery > 0 && i%spec.sampleEvery == 0
		if sampled {
			start := time.Now()
			cb = func(r wire.OpResult) {
				done(r)
				if r.Status != wire.StatusError {
					opLat.Record(time.Since(start))
				}
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
			return err
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
					commitLat.Record(now.Sub(s.at))
				} else {
					keep = append(keep, s)
				}
			}
			commitSamples = keep
		}
		return nil
	}
	return thread{step: step, finish: func() error {
		defer client.Close()
		return client.Drain()
	}}, nil
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
		Partitions: bc.partitions,
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
