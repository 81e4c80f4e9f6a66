package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/redisclone"
	"dpr/internal/storage"
	"dpr/internal/wire"
	"dpr/internal/workload"
)

// The traced run. Everything here times calls into a layer's exported
// functions from this side of the call; nothing inside the program is
// instrumented. It has four parts:
//
//  1. a short untraced window on a plain cluster, the reference the traced
//     window's throughput is compared with (trace.overhead_share);
//  2. the traced window on a cluster whose devices and metadata service are
//     wrapped in the timing decorators (storage.*, metadata.*, core.*, the
//     commit chain, cluster.*, client.* tails);
//  3. batches stepped by hand through session -> wire -> execute -> wire ->
//     session against the still-live, now idle, traced cluster, plus real
//     client round trips on it (wire.*, libdpr.*, dfaster.*, dredis.*);
//  4. direct loops on a standalone kv store or redisclone server with the
//     workload's key distribution (kv.*, redisclone.*).

const (
	steppedBatches = 512
	directChunk    = 256 // operations timed per clock pair in the direct loops
	directOps      = 1 << 16
)

func runTraced(spec *workloadSpec, seed int64, length time.Duration, opt options, r *result) error {
	tr := newTracer()
	for _, d := range perLayer {
		r.Metrics[d.name] = 0
	}

	plain, err := setUp(spec, nil)
	if err != nil {
		return err
	}
	ref, err := measure(plain, seed, opt.warmup/2, length/4, nil)
	plain.close()
	if err != nil {
		return err
	}
	r.verdict(ref)

	c, err := setUp(spec, tr)
	if err != nil {
		return err
	}
	defer c.close() // the happy path closes it earlier, before the spans are written out
	win := length / 3
	if win > 5*time.Second {
		win = 5 * time.Second
	}
	tw, err := measure(c, seed, opt.warmup/2, win, tr)
	if err != nil {
		return err
	}
	r.verdict(tw)
	m := r.Metrics
	m["trace.overhead_share"] = 1 - tw.opsPerSec()/ref.opsPerSec()
	m["client.op_p50_ms"] = ms(float64(quantile(tw.opLat, 50)))
	m["client.op_p99_ms"] = ms(float64(p99OrBest(tw.opLat)))
	m["client.commit_p99_ms"] = ms(float64(p99OrBest(tw.commitLat)))
	m["client.failed_share"] = float64(r.Failed) / float64(max(r.Attempted, 1))
	m["loadgen.late_p99_ms"] = ms(float64(p99OrBest(tw.late)))
	r.checkGenerator(spec, m["loadgen.late_p99_ms"])
	r.Info["traced_ops_per_s"] = tw.opsPerSec()
	r.Info["untraced_ops_per_s"] = ref.opsPerSec()
	r.Info["traced_commit_p50_ms"] = ms(float64(quantile(tw.commitLat, 50)))
	r.Info["op_samples"] = float64(len(tw.opLat))
	r.Info["commit_samples"] = float64(len(tw.commitLat))

	liveLayers(c, tw, m, r.Info)
	if tw.inj != nil {
		clusterLayers(tw, m)
	}
	if err := stepped(c, seed, tr, r); err != nil {
		return fmt.Errorf("stepped batches: %w", err)
	}
	c.close() // the decorators record spans for as long as the cluster lives
	// The execute metrics are the stepped call as timed, admission and the
	// store's own operations included; kv.* and redisclone.* are reported
	// beside them. What is left after taking those out is printed as
	// information only, because it is a difference of separately measured
	// medians: on dredis both sides are one event-loop round trip per command,
	// so the remainder is small and can come out negative.
	perOp := r.Info["stepped_execute_ns_per_batch"] / float64(spec.batch)
	store := 0.0
	if spec.store == storeDredis {
		err = directRedis(spec, seed, tr, m)
		m["dredis.execute_ns_per_op"] = perOp
		store = spec.readFrac*m["redisclone.get_ns"] + (1-spec.readFrac)*m["redisclone.set_ns"]
	} else {
		err = directKV(spec, seed, tr, m)
		m["dfaster.execute_ns_per_op"] = perOp
		store = spec.readFrac*m["kv.read_ns"] + (1-spec.readFrac)*m["kv.upsert_ns"]
	}
	r.Info["execute_self_ns_per_op"] = perOp - m["libdpr.admit_release_ns"]/float64(spec.batch) - store
	if err != nil {
		return fmt.Errorf("direct loops: %w", err)
	}
	return tr.dump(filepath.Join(opt.out, "trace-"+spec.name+".json"))
}

func durations(xs []interval, from, to int64) []int64 {
	var out []int64
	for _, x := range xs {
		if x.start >= from && x.start < to {
			out = append(out, x.end-x.start)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// liveLayers turns what the two decorators saw during the traced window into
// the storage.*, metadata.*, core.* and commit-chain metrics.
func liveLayers(c *testCluster, w *window, m, info map[string]float64) {
	secs := w.seconds()
	var writes []interval
	var bytes int64
	for _, d := range c.devs {
		d.mu.Lock()
		for i, x := range d.writes {
			if x.start >= w.start && x.start < w.end {
				writes = append(writes, x)
				bytes += d.sizes[i]
			}
		}
		d.mu.Unlock()
	}
	c.meta.mu.Lock()
	reports := append([]reportRec(nil), c.meta.reports...)
	waits := append([]interval(nil), c.meta.waits...)
	states := append([]interval(nil), c.meta.states...)
	c.meta.mu.Unlock()
	var reportIvs []interval
	for _, rp := range reports {
		reportIvs = append(reportIvs, rp.interval)
	}
	wd := durations(writes, w.start, w.end)
	rd := durations(reportIvs, w.start, w.end)
	m["storage.writes_per_s"] = float64(len(wd)) / secs
	m["storage.write_bytes_per_op"] = float64(bytes) / float64(max(w.ops, 1))
	m["storage.writes_per_report"] = float64(len(wd)) / float64(max(len(rd), 1))
	m["storage.write_ms_p50"] = ms(float64(quantile(wd, 50)))
	m["metadata.reports_per_s"] = float64(len(rd)) / secs
	m["metadata.report_us_p50"] = float64(quantile(rd, 50)) / 1e3
	m["metadata.state_calls_per_s"] = float64(len(durations(states, w.start, w.end))) / secs
	m["metadata.wait_block_ms_p50"] = ms(float64(quantile(durations(waits, w.start, w.end), 50)))

	// Shadow finder: the same kind of finder, fed the same report stream, so
	// core.Finder is timed without the store's locking and publishing.
	shadow := metadata.NewFinder(metadata.FinderApproximate)
	for sh := 0; sh < shards; sh++ {
		shadow.AddWorker(workerID(sh))
	}
	var rep, cut []int64
	for _, rp := range reports {
		t0 := now()
		shadow.Report(rp.worker, rp.version, rp.deps)
		t1 := now()
		_ = shadow.CurrentCut()
		t2 := now()
		rep, cut = append(rep, t1-t0), append(cut, t2-t1)
	}
	sort.Slice(rep, func(i, j int) bool { return rep[i] < rep[j] })
	sort.Slice(cut, func(i, j int) bool { return cut[i] < cut[j] })
	m["core.finder_report_ns"] = float64(quantile(rep, 50))
	m["core.finder_cut_ns"] = float64(quantile(cut, 50))

	commitChain(c, w, reports, m, info)
}

// seal is one checkpoint as the decorators saw it on one shard: the device
// writes that completed before a ReportVersion call, and that call.
type seal struct {
	firstWrite, lastDone int64
	report               interval
}

// commitChain splits commit latency at the boundaries visible from outside:
// issue -> first device write of the next seal on the op's shard -> that
// seal's last done -> its ReportVersion returns -> the client sees the op
// committed. Events are joined per shard in time order. The last stage also
// holds whatever the first three cannot see: the other shard's seal (the cut
// is the minimum over shards), the watch wake-up, the push and the client's
// fold. Stage means are weighted by operations and add up to
// client.commit_mean_ms exactly unless the join misplaces a seal.
func commitChain(c *testCluster, w *window, reports []reportRec, m, info map[string]float64) {
	var seals [shards][]seal
	for sh := 0; sh < shards; sh++ {
		d := c.devs[sh]
		d.mu.Lock()
		writes := append([]interval(nil), d.writes...)
		d.mu.Unlock()
		sort.Slice(writes, func(i, j int) bool { return writes[i].end < writes[j].end })
		next := 0
		for _, rp := range reports {
			if rp.worker != workerID(sh) {
				continue
			}
			s := seal{report: rp.interval}
			for ; next < len(writes) && writes[next].end <= rp.start; next++ {
				if s.firstWrite == 0 || writes[next].start < s.firstWrite {
					s.firstWrite = writes[next].start
				}
				s.lastDone = writes[next].end
			}
			if s.firstWrite != 0 {
				seals[sh] = append(seals[sh], s)
			}
		}
		sort.Slice(seals[sh], func(i, j int) bool { return seals[sh][i].firstWrite < seals[sh][j].firstWrite })
	}
	var stage [4]float64
	var total, ops, unjoined float64
	for _, s := range w.sessions {
		for _, cs := range s.chain {
			ss := seals[cs.shard]
			i := sort.Search(len(ss), func(i int) bool { return ss[i].firstWrite >= cs.t0 })
			if i == len(ss) {
				unjoined += float64(cs.n)
				continue
			}
			n := float64(cs.n)
			stage[0] += n * float64(ss[i].firstWrite-cs.t0)
			stage[1] += n * float64(ss[i].lastDone-ss[i].firstWrite)
			stage[2] += n * float64(ss[i].report.end-ss[i].lastDone)
			if d := cs.t4 - ss[i].report.end; d > 0 {
				stage[3] += n * float64(d)
			}
			total += n * float64(cs.t4-cs.t0)
			ops += n
		}
	}
	if ops == 0 {
		return
	}
	m["libdpr.commit_pump_wait_ms"] = ms(stage[0] / ops)
	m["storage.commit_persist_ms"] = ms(stage[1] / ops)
	m["metadata.commit_report_ms"] = ms(stage[2] / ops)
	m["libdpr.commit_cut_to_client_ms"] = ms(stage[3] / ops)
	m["client.commit_mean_ms"] = ms(total / ops)
	info["commit_chain_ops"] = ops
	info["commit_chain_unjoined_ops"] = unjoined
}

// clusterLayers reports the recovery path of crash_recover.
func clusterLayers(w *window, m map[string]float64) {
	n := w.inj.count()
	if n == 0 {
		return
	}
	var onFailure, resume, recovery []float64
	var erased int64
	for f := 1; f <= n; f++ {
		fl := w.inj.get(f)
		onFailure = append(onFailure, float64(fl.ret-fl.call))
		first := int64(0)
		for _, s := range w.sessions {
			if d := s.resumed[f]; d > 0 {
				resume = append(resume, float64(d))
			}
			if d := s.recovery[f]; d > 0 && (first == 0 || d < first) {
				first = d
			}
		}
		if first > 0 {
			recovery = append(recovery, float64(first))
		}
	}
	for _, s := range w.sessions {
		erased += s.fate.erased
	}
	m["cluster.onfailure_ms"] = ms(median(onFailure))
	m["cluster.client_resume_ms"] = ms(median(resume))
	m["cluster.recovery_ms"] = ms(median(recovery))
	m["cluster.aborted_per_failure"] = float64(erased) / float64(n)
}

// shardOps draws n operations of the workload's mix and key distribution
// that all address shard 0: the stepped batches and direct loops work one
// shard, as one serving connection does.
func shardOps(spec *workloadSpec, seed int64, n int) []workload.Op {
	keys := sessionKeys(spec, 0)
	nkeys := preloadKeys
	if keys != nil {
		nkeys = int64(len(keys))
	}
	gen := workload.NewGenerator(workload.Config{
		Keys: nkeys, ReadFraction: spec.readFrac, Dist: spec.dist, Theta: 0.99, Seed: seed*7919 + 101,
	})
	ops := make([]workload.Op, 0, n)
	for len(ops) < n {
		op := gen.Next()
		if keys != nil {
			op.Key = keys[keyIndex(op)]
		}
		if shardOf(op.Key[:]) == 0 {
			ops = append(ops, op)
		}
	}
	return ops
}

// clockCost is the median time between two back-to-back clock reads. A timed
// interval includes one of them; at b=1 that is a tenth of a stage, so the
// per-layer numbers (not the spans) have it taken out.
func clockCost() int64 {
	d := make([]int64, 1001)
	for i := range d {
		t := now()
		d[i] = now() - t
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

type stageTimes struct {
	name string
	ns   []int64
}

func (s *stageTimes) p50() float64 {
	sort.Slice(s.ns, func(i, j int) bool { return s.ns[i] < s.ns[j] })
	return float64(quantile(s.ns, 50))
}

// stepped walks batches through the serve path one exported call at a time.
func stepped(c *testCluster, seed int64, tr *tracer, r *result) error {
	spec, m := c.spec, r.Metrics
	b := spec.batch
	clk := clockCost()
	ops := shardOps(spec, seed, steppedBatches*b)
	vals := make([][8]byte, len(ops))
	wid := workerID(0)

	sess, err := libdpr.NewSession(c.svc, true)
	if err != nil {
		return err
	}
	var execute func(*wire.BatchRequest) (*wire.BatchReply, *wire.ErrorReply)
	var dpr *libdpr.Worker
	execName := "dfaster.execute"
	if spec.store == storeDredis {
		execute, dpr, execName = c.rworkers[0].ExecuteBatch, c.rworkers[0].DPR(), "dredis.execute"
	} else {
		w := c.fworkers[0]
		kvs := w.Store().NewSession()
		defer kvs.Close()
		lane := w.NewLane()
		defer lane.Close()
		sc := dfaster.NewBatchScratch()
		execute = func(req *wire.BatchRequest) (*wire.BatchReply, *wire.ErrorReply) {
			return w.ExecuteLocalScratch(kvs, req, sc, lane)
		}
		dpr = w.DPR()
	}

	stages := []*stageTimes{
		{name: "libdpr.session_next_batch"}, {name: "wire.req_encode"}, {name: "wire.req_decode"},
		{name: execName}, {name: "wire.reply_encode"}, {name: "wire.reply_decode"},
		{name: "libdpr.session_complete_batch"},
	}
	var req, dreq wire.BatchRequest
	var dreply wire.BatchReply
	var buf, out []byte
	var versions []core.Version
	var reqBytes, replyBytes int64
	for n := 0; n < steppedBatches; n++ {
		req.Ops = req.Ops[:0]
		for j := n * b; j < (n+1)*b; j++ {
			op := wire.Op{Kind: wire.OpRead, Key: ops[j].Key[:]}
			if ops[j].Kind != workload.OpRead {
				vals[j] = workload.Value8(ops[j].Key)
				op.Kind, op.Value = wire.OpUpsert, vals[j][:]
			}
			req.Ops = append(req.Ops, op)
		}
		var t [8]int64
		t[0] = now()
		h, err := sess.NextBatch(b)
		if err != nil {
			return err
		}
		req.Header = h
		t[1] = now()
		served := &req
		t[2], t[3] = t[1], t[1]
		if !spec.colocated {
			buf = wire.AppendBatchRequest(buf[:0], &req)
			t[2] = now()
			if err := wire.DecodeBatchRequestInto(&dreq, buf); err != nil {
				return err
			}
			t[3] = now()
			served = &dreq
			reqBytes += int64(len(buf))
		}
		reply, errReply := execute(served)
		if errReply != nil {
			return errReply
		}
		t[4] = now()
		t[5], t[6] = t[4], t[4]
		seen := reply
		if !spec.colocated {
			out = wire.AppendBatchReply(out[:0], reply)
			t[5] = now()
			if err := wire.DecodeBatchReplyInto(&dreply, out); err != nil {
				return err
			}
			t[6] = now()
			seen = &dreply
			replyBytes += int64(len(out))
		}
		versions = versions[:0]
		for i := range seen.Results {
			res := &seen.Results[i]
			versions = append(versions, res.Version)
			if want := workload.Value8(ops[n*b+i].Key); res.Status == wire.StatusError ||
				(req.Ops[i].Kind == wire.OpRead && string(res.Value) != string(want[:])) {
				r.Checks["wrong_reads"]++
			}
		}
		t6 := now() // the checks above are the benchmark's, not the session's
		if err := sess.CompleteBatch(wid, h, libdpr.BatchReply{WorldLine: seen.WorldLine, Versions: versions, Cut: seen.Cut}); err != nil {
			return err
		}
		t[7] = now()

		parent := tr.newID()
		for i, st := range stages {
			start, end := t[i], t[i+1]
			if i == len(stages)-1 {
				start = t6
			}
			if spec.colocated && st.name[:5] == "wire." {
				continue // a co-located operation never touches the wire
			}
			st.ns = append(st.ns, max(end-start-clk, 0))
			tr.put(tr.newID(), parent, parent, st.name, start, end)
		}
		tr.put(parent, 0, parent, "serve.batch", t[0], t[7])
	}

	// Admission alone: guarded admit plus release on the worker's libdpr
	// half, with headers from a session of its own.
	admitSess, err := libdpr.NewSession(c.svc, true)
	if err != nil {
		return err
	}
	lane := dpr.NewLane()
	defer lane.Close()
	admit := &stageTimes{name: "libdpr.admit_release"}
	const perClock = 16
	for n := 0; n < 4*steppedBatches/perClock; n++ {
		var hs [perClock]libdpr.BatchHeader
		for i := range hs {
			if hs[i], err = admitSess.NextBatch(b); err != nil {
				return err
			}
		}
		start := now()
		for i := range hs {
			if _, err := dpr.AdmitBatchGuarded(hs[i], lane); err != nil {
				return err
			}
			dpr.ReleaseBatch(hs[i], lane, true)
		}
		end := now()
		admit.ns = append(admit.ns, (end-start-clk)/perClock)
		tr.record(admit.name, start, end)
	}

	rtt, err := clientRoundTrips(c, ops, tr)
	if err != nil {
		return err
	}

	p50 := map[string]float64{}
	sum := 0.0
	for _, st := range stages {
		p50[st.name] = st.p50()
		sum += p50[st.name]
	}
	fb := float64(b)
	m["libdpr.session_next_batch_ns"] = p50["libdpr.session_next_batch"]
	m["libdpr.session_complete_batch_ns"] = p50["libdpr.session_complete_batch"]
	m["libdpr.admit_release_ns"] = admit.p50()
	if !spec.colocated {
		m["wire.req_encode_ns_per_op"] = p50["wire.req_encode"] / fb
		m["wire.req_decode_ns_per_op"] = p50["wire.req_decode"] / fb
		m["wire.reply_encode_ns_per_op"] = p50["wire.reply_encode"] / fb
		m["wire.reply_decode_ns_per_op"] = p50["wire.reply_decode"] / fb
		m["wire.req_bytes_per_op"] = float64(reqBytes) / float64(len(ops))
		m["wire.reply_bytes_per_op"] = float64(replyBytes) / float64(len(ops))
	}
	r.Info["stepped_execute_ns_per_batch"] = p50[execName]
	r.Info["stepped_stage_sum_ns"] = sum
	m["dfaster.batch_rtt_us"] = rtt / 1e3
	if rtt > 0 {
		m["dfaster.serve_residual_share"] = 1 - sum/rtt
	}
	return nil
}

// clientRoundTrips times real client batches on the idle cluster: from the
// enqueue of a batch's first operation to that operation's callback.
func clientRoundTrips(c *testCluster, ops []workload.Op, tr *tracer) (float64, error) {
	spec := c.spec
	cfg := dfaster.ClientConfig{Partitions: partitions, BatchSize: spec.batch, Window: spec.window, Relaxed: true}
	if spec.colocated {
		cfg.LocalWorker = c.fworkers[0]
	}
	client, err := dfaster.NewClient(cfg, c.svc)
	if err != nil {
		return 0, err
	}
	defer client.Close()
	rtt := &stageTimes{name: "client.batch_rtt"}
	first := make(chan int64, 1)
	b := spec.batch
	for n := 0; n < steppedBatches; n++ {
		start := now()
		for j := n * b; j < (n+1)*b; j++ {
			var cb dfaster.OpCallback
			if j == n*b {
				cb = func(wire.OpResult) { first <- now() }
			}
			if err := client.Read(ops[j].Key[:], cb); err != nil {
				return 0, err
			}
		}
		end := <-first
		if err := client.Drain(); err != nil {
			return 0, err
		}
		rtt.ns = append(rtt.ns, end-start)
		tr.record(rtt.name, start, end)
	}
	return rtt.p50(), nil
}

// timeChunks runs op over the operations in chunks of directChunk per clock
// pair and returns the median per-operation time.
func timeChunks(name string, tr *tracer, ops []workload.Op, chunk int, op func(workload.Op) error) (float64, error) {
	st := &stageTimes{name: name}
	for at := 0; at+chunk <= len(ops); at += chunk {
		start := now()
		for _, o := range ops[at : at+chunk] {
			if err := op(o); err != nil {
				return 0, err
			}
		}
		end := now()
		st.ns = append(st.ns, (end-start)/int64(chunk))
		tr.record(name, start, end)
	}
	return st.p50(), nil
}

// loadShard upserts shard 0's share of the preloaded keys through put.
func loadShard(put func(key, val []byte) error) error {
	for i := int64(0); i < preloadKeys; i++ {
		k := workload.KeyAt(i)
		if shardOf(k[:]) != 0 {
			continue
		}
		v := workload.Value8(k)
		if err := put(k[:], v[:]); err != nil {
			return err
		}
	}
	return nil
}

func awaitVersion(persisted func() core.Version, v core.Version) error {
	deadline := time.Now().Add(drainLimit)
	for persisted() < v {
		if time.Now().After(deadline) {
			return fmt.Errorf("version %d not persisted within %v", v, drainLimit)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

// directKV times kv.Session operations and the store's checkpoint, restore
// and recover on a standalone store with the cluster's kv configuration,
// one shard's keys and the workload's key distribution.
func directKV(spec *workloadSpec, seed int64, tr *tracer, m map[string]float64) error {
	store := kv.NewStore(storage.NewSink("local-ssd", storage.LocalSSDProfile), kvConfig())
	defer store.Close()
	sess := store.NewSession()
	defer sess.Close()
	upsert := func(key, val []byte) error { _, err := sess.Upsert(key, val); return err }
	if err := loadShard(upsert); err != nil {
		return err
	}
	ops := shardOps(spec, seed, directOps)
	var arena []byte
	var err error
	if m["kv.read_ns"], err = timeChunks("kv.read", tr, ops, directChunk, func(o workload.Op) error {
		arena = arena[:0]
		if _, st, _ := sess.ReadAppend(&arena, o.Key[:], 0); st != kv.StatusOK {
			return fmt.Errorf("kv read of a preloaded key: %v", st)
		}
		return nil
	}); err != nil {
		return err
	}
	if m["kv.upsert_ns"], err = timeChunks("kv.upsert", tr, ops, directChunk, func(o workload.Op) error {
		v := workload.Value8(o.Key)
		return upsert(o.Key[:], v[:])
	}); err != nil {
		return err
	}
	if m["kv.rmw_ns"], err = timeChunks("kv.rmw", tr, ops, directChunk, func(o workload.Op) error {
		if st, _, _ := sess.RMW(o.Key[:], 1, 0); st != kv.StatusOK {
			return fmt.Errorf("kv rmw: %v", st)
		}
		return nil
	}); err != nil {
		return err
	}

	// Checkpoint and in-place restore, each after a burst of writes.
	const rounds, burst = 5, 4096
	var ckpt, restore []float64
	for n := 0; n < rounds; n++ {
		for _, o := range ops[n*burst : (n+1)*burst] {
			if err := upsert(o.Key[:], o.Key[:]); err != nil {
				return err
			}
		}
		v := store.CurrentVersion()
		start := now()
		if err := store.BeginCommit(v); err != nil {
			return err
		}
		if err := awaitVersion(store.PersistedVersion, v); err != nil {
			return err
		}
		end := now()
		ckpt = append(ckpt, float64(end-start))
		tr.record("kv.checkpoint", start, end)
		for _, o := range ops[n*burst : (n+1)*burst] {
			if err := upsert(o.Key[:], o.Key[:]); err != nil {
				return err
			}
		}
		start = now()
		if err := store.Restore(store.PersistedVersion()); err != nil {
			return err
		}
		end = now()
		restore = append(restore, float64(end-start))
		tr.record("kv.restore", start, end)
	}
	m["kv.checkpoint_ms"] = ms(median(ckpt))
	m["kv.restore_ms"] = ms(median(restore))

	// Recover needs a device that reads back.
	dev := storage.NewMemDevice("mem", storage.NullProfile)
	src := kv.NewStore(dev, kvConfig())
	srcSess := src.NewSession()
	err = loadShard(func(key, val []byte) error { _, err := srcSess.Upsert(key, val); return err })
	srcSess.Close()
	v := src.CurrentVersion()
	if err == nil {
		err = src.BeginCommit(v)
	}
	if err == nil {
		err = awaitVersion(src.PersistedVersion, v)
	}
	src.Close()
	if err != nil {
		return err
	}
	var recover []float64
	for n := 0; n < 3; n++ {
		start := now()
		rec, err := kv.Recover(dev, kvConfig(), v)
		end := now()
		if err != nil {
			return err
		}
		rec.Close()
		recover = append(recover, float64(end-start))
		tr.record("kv.recover", start, end)
	}
	m["kv.recover_ms"] = ms(median(recover))
	return nil
}

// directRedis times redisclone's Get, Set and BgSave on a standalone server
// holding one shard's keys.
func directRedis(spec *workloadSpec, seed int64, tr *tracer, m map[string]float64) error {
	srv := redisclone.New(redisclone.Config{Device: storage.NewSink("local-ssd", storage.LocalSSDProfile), Prefix: "direct"})
	defer srv.Stop()
	if err := loadShard(func(key, val []byte) error { return srv.Set(string(key), val) }); err != nil {
		return err
	}
	// Every command is a round trip through the server's event loop, so a
	// smaller chunk still dwarfs the clock reads.
	ops := shardOps(spec, seed, directOps/4)
	var err error
	if m["redisclone.get_ns"], err = timeChunks("redisclone.get", tr, ops, directChunk/4, func(o workload.Op) error {
		if _, ok, err := srv.Get(string(o.Key[:])); err != nil || !ok {
			return errors.Join(err, errors.New("redisclone get of a preloaded key missed"))
		}
		return nil
	}); err != nil {
		return err
	}
	if m["redisclone.set_ns"], err = timeChunks("redisclone.set", tr, ops, directChunk/4, func(o workload.Op) error {
		v := workload.Value8(o.Key)
		return srv.Set(string(o.Key[:]), v[:])
	}); err != nil {
		return err
	}
	var saves []float64
	for n := 0; n < 5; n++ {
		start := now()
		id, err := srv.BgSave()
		if err != nil {
			return err
		}
		if err := awaitVersion(func() core.Version { return core.Version(srv.LastSave()) }, core.Version(id)); err != nil {
			return err
		}
		end := now()
		saves = append(saves, float64(end-start))
		tr.record("redisclone.bgsave", start, end)
	}
	m["redisclone.bgsave_ms"] = ms(median(saves))
	return nil
}
