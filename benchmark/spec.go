package main

import (
	"time"

	"dpr/internal/workload"
)

// The fixed set-up. Every run of every workload uses these values; they are
// the "same on both sides of any comparison" part of the benchmark and are
// repeated in README.md.
const (
	shards       = 2
	partitions   = 128
	sessions     = 2 // fixed regardless of host so records compare across hosts
	ckptInterval = 100 * time.Millisecond
	bucketCount  = 1 << 16

	warmup     = 2 * time.Second
	drainLimit = 5 * time.Second
	commitPoll = 250 * time.Microsecond // Committed() is checked at least every 0.5 ms

	pacedSlot    = time.Millisecond
	pacedPerSlot = 32               // upserts due per session per slot: 2 x 32 000 = 64 000 ops/s offered
	lateLimit    = time.Millisecond // a paced run whose generator's p99 lateness is above this is invalid
	// A run is also invalid when the hypervisor withheld more than this share
	// of the window's processor time (the steal column of /proc/stat): in a
	// quiet phase the share is 0, in a bad one 0.15 to 0.45.
	stealLimit = 0.02

	failEvery  = 2 * time.Second // crash_recover: OnFailure() every 2 s ...
	failJitter = 250 * time.Millisecond
	failFirst  = time.Second // ... from 1 s into the window
	stripeKeys = 4096        // crash_recover: keys per session stripe
)

// preloadKeys is the keyspace: 262 144 keys, 8-byte keys and values, all in
// memory. A variable only so the smoke pass can shrink it.
var preloadKeys int64 = 1 << 18

type storeKind uint8

const (
	storeDfaster storeKind = iota
	storeDredis
)

// workloadSpec describes one named workload.
type workloadSpec struct {
	name  string
	why   string
	store storeKind
	// colocated sessions run on their shard's thread and draw only shard-local
	// keys (no wire, no TCP); otherwise sessions are remote over loopback TCP.
	colocated bool
	paced     bool // open loop at the pacedPerSlot/pacedSlot rate; else closed loop
	crash     bool // inject cluster.Manager.OnFailure() and run the fate checker
	batch     int
	window    int
	dist      workload.Distribution
	readFrac  float64
	// sampleEvery thins op/commit latency sampling on the closed-loop rows so
	// two clock reads per sample do not become the workload.
	sampleEvery int
	// ungated keeps a row out of BENCHMARK.json and out of -compare's exit
	// code: it is run, checked and printed like the others, but its end-to-end
	// numbers do not repeat within any bound the gate could use.
	ungated bool
}

var workloads = []workloadSpec{
	{
		name: "ycsb_a_batched", store: storeDfaster, batch: 64, window: 1024,
		dist: workload.Zipfian, readFrac: 0.5, sampleEvery: 16,
		why: "closed loop, 2 remote sessions, b=64 w=1024, Zipfian 0.99, 50/50 read/upsert: the paper's default cell, serve path at saturation (wire, dfaster serve loop, kv)",
	},
	{
		name: "colocated_b1", store: storeDfaster, colocated: true, batch: 1, window: 16,
		dist: workload.Uniform, readFrac: 0.95, sampleEvery: 64,
		why: "closed loop, 2 co-located sessions, b=1, shard-local uniform keys, 95/5: no wire or TCP, so per-op libdpr admission and session tracking dominate",
	},
	{
		name: "commit_paced", store: storeDfaster, paced: true, batch: 16, window: 1024,
		dist: workload.Uniform, readFrac: 0, sampleEvery: 1,
		why: "open loop, 64 000 upserts/s (under a fifth of capacity), b=16, latency from the due time: no queueing, so latency is the commit chain itself",
	},
	{
		name: "crash_recover", store: storeDfaster, paced: true, crash: true, batch: 16, window: 1024,
		dist: workload.Uniform, readFrac: 0, sampleEvery: 1,
		why: "commit_paced traffic on per-session key stripes with OnFailure() every 2 s: rollback, world-line bump and the only check of the prefix guarantee under load",
	},
	{
		name: "dredis_batched", store: storeDredis, batch: 64, window: 1024,
		dist: workload.Zipfian, readFrac: 0.5, sampleEvery: 16, ungated: true,
		why: "ycsb_a_batched traffic byte for byte against dredis workers: same libdpr and wire, different state object and serve loop, so the difference isolates those",
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one reported metric. bound is the regression bound of an
// end-to-end metric (share of the parent's median); per-layer metrics have
// none. BENCHMARK.json carries the same tables; TestBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{"wire.req_encode_ns_per_op", "ns", "lower", 0},
	{"wire.req_decode_ns_per_op", "ns", "lower", 0},
	{"wire.reply_encode_ns_per_op", "ns", "lower", 0},
	{"wire.reply_decode_ns_per_op", "ns", "lower", 0},
	{"wire.req_bytes_per_op", "B", "lower", 0},
	{"wire.reply_bytes_per_op", "B", "lower", 0},
	{"libdpr.session_next_batch_ns", "ns", "lower", 0},
	{"libdpr.session_complete_batch_ns", "ns", "lower", 0},
	{"libdpr.admit_release_ns", "ns", "lower", 0},
	{"dfaster.execute_ns_per_op", "ns", "lower", 0},
	{"dredis.execute_ns_per_op", "ns", "lower", 0},
	{"dfaster.batch_rtt_us", "us", "lower", 0},
	{"dfaster.serve_residual_share", "share", "lower", 0},
	{"kv.read_ns", "ns", "lower", 0},
	{"kv.upsert_ns", "ns", "lower", 0},
	{"kv.rmw_ns", "ns", "lower", 0},
	{"kv.checkpoint_ms", "ms", "lower", 0},
	{"kv.restore_ms", "ms", "lower", 0},
	{"kv.recover_ms", "ms", "lower", 0},
	{"redisclone.get_ns", "ns", "lower", 0},
	{"redisclone.set_ns", "ns", "lower", 0},
	{"redisclone.bgsave_ms", "ms", "lower", 0},
	{"storage.writes_per_s", "1/s", "lower", 0},
	{"storage.write_bytes_per_op", "B", "lower", 0},
	{"storage.writes_per_report", "count", "lower", 0},
	{"storage.write_ms_p50", "ms", "lower", 0},
	{"metadata.reports_per_s", "1/s", "higher", 0},
	{"metadata.report_us_p50", "us", "lower", 0},
	{"metadata.state_calls_per_s", "1/s", "lower", 0},
	{"metadata.wait_block_ms_p50", "ms", "lower", 0},
	{"core.finder_report_ns", "ns", "lower", 0},
	{"core.finder_cut_ns", "ns", "lower", 0},
	{"libdpr.commit_pump_wait_ms", "ms", "lower", 0},
	{"storage.commit_persist_ms", "ms", "lower", 0},
	{"metadata.commit_report_ms", "ms", "lower", 0},
	{"libdpr.commit_cut_to_client_ms", "ms", "lower", 0},
	{"client.commit_mean_ms", "ms", "lower", 0},
	{"cluster.onfailure_ms", "ms", "lower", 0},
	{"cluster.client_resume_ms", "ms", "lower", 0},
	{"cluster.aborted_per_failure", "count", "lower", 0},
	{"cluster.recovery_ms", "ms", "lower", 0},
	{"client.op_p50_ms", "ms", "lower", 0},
	{"client.op_p99_ms", "ms", "lower", 0},
	{"client.commit_p99_ms", "ms", "lower", 0},
	{"client.failed_share", "share", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
}
