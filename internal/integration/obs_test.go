package integration

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpr/internal/dfaster"
	"dpr/internal/metadata"
	"dpr/internal/obs"
)

// Ports disjoint from TestMultiProcessCrashRecovery so the tests can share a
// process.
const (
	obsFinderAddr = "127.0.0.1:17750"
	obsW1Addr     = "127.0.0.1:17851"
	obsDredisAddr = "127.0.0.1:17861"
	finderObsHTTP = "127.0.0.1:17950"
	w1ObsHTTP     = "127.0.0.1:17951"
	dredisObsHTTP = "127.0.0.1:17952"
	obsPartitions = 8
)

// TestObsEndpoints boots the real binaries with -obs-addr, drives a committed
// workload, and verifies the always-on observability surface end to end: the
// Prometheus exposition on /metrics carries the dpr_ gauge and counter
// families and they move with the workload, /debug/dpr serves a decodable
// DPRState on both store kinds, and the in-process client records commit
// latency (issue → covered-by-committed-cut) on the default registry.
func TestObsEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test; skipped with -short")
	}
	binDir := t.TempDir()
	finderBin, serverBin := buildBinaries(t, binDir)
	dredisBin := filepath.Join(binDir, "dredis-server")
	build := exec.Command("go", "build", "-o", dredisBin, "dpr/cmd/dredis-server")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dredis-server: %v\n%s", err, out)
	}

	startProc(t, "obs-finder.log", finderBin,
		"-listen", obsFinderAddr, "-hb-timeout", "30s", "-obs-addr", finderObsHTTP)
	waitDialable(t, obsFinderAddr)

	var own []string
	for p := 0; p < obsPartitions; p++ {
		own = append(own, fmt.Sprint(p))
	}
	startProc(t, "obs-w1.log", serverBin,
		"-id", "1", "-listen", obsW1Addr, "-finder", obsFinderAddr,
		"-partitions", fmt.Sprint(obsPartitions), "-own", strings.Join(own, ","),
		"-checkpoint", "40ms", "-heartbeat", "100ms", "-obs-addr", w1ObsHTTP)
	startProc(t, "obs-dredis.log", dredisBin,
		"-id", "2", "-listen", obsDredisAddr, "-finder", obsFinderAddr,
		"-checkpoint", "40ms", "-heartbeat", "100ms", "-obs-addr", dredisObsHTTP)
	waitDialable(t, obsW1Addr)
	waitDialable(t, obsDredisAddr)
	for _, h := range []string{finderObsHTTP, w1ObsHTTP, dredisObsHTTP} {
		waitDialable(t, h)
	}

	before := scrapeMetrics(t, w1ObsHTTP)
	if _, ok := findMetric(before, "dpr_worker_world_line"); !ok {
		t.Fatalf("dpr_worker_world_line missing before workload:\n%s", before)
	}

	meta, err := metadata.Dial(obsFinderAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer meta.Close()
	client, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions: obsPartitions, BatchSize: 8, Window: 16, Relaxed: true,
	}, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 64; i++ {
		if err := client.Upsert([]byte(fmt.Sprintf("obs-key-%d", i)), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.WaitCommitAll(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	after := scrapeMetrics(t, w1ObsHTTP)
	for _, family := range []string{
		"# TYPE dpr_worker_world_line gauge",
		"# TYPE dpr_worker_committed_version gauge",
		"# TYPE dpr_worker_cut_lag gauge",
		"# TYPE dpr_server_batches_total counter",
		// Sampled, so that nobody reads a histogram's _count as a batch rate.
		"sampled: one batch in 64 per lane.\n# TYPE dpr_server_batch_latency_seconds histogram",
		"sampled: one batch in 64 per lane.\n# TYPE dpr_server_batch_ops histogram",
		"# TYPE dpr_seal_seconds histogram",
		`dpr_worker_commit_rounds_total{role="initiated",worker="1"`,
		`dpr_worker_commit_rounds_total{role="joined",worker="1"`,
		"mapped the slab bytes backed by memory.\n# TYPE dpr_store_log_bytes gauge",
		`dpr_store_log_bytes{region="resident"`,
		`dpr_store_log_bytes{region="mutable"`,
		`dpr_store_log_bytes{region="mapped"`,
		"# TYPE dpr_store_index_chains gauge",
		"# TYPE dpr_store_index_full_lines gauge",
		`dpr_store_compaction_bytes_total{kind="scanned"`,
		`dpr_store_compaction_bytes_total{kind="copied"`,
		`dpr_store_compaction_bytes_total{kind="reclaimed"`,
		"# TYPE dpr_store_compaction_step_seconds histogram",
		"# TYPE dpr_store_epoch_drain_seconds histogram",
		"# TYPE dpr_store_epoch_drain_yields_total counter",
		`dpr_store_epoch_drain_yields_total{store="dfaster",worker="1"}`,
	} {
		if !strings.Contains(after, family) {
			t.Fatalf("missing %q in worker exposition:\n%s", family, after)
		}
	}
	if v, ok := findMetric(after, "dpr_server_batches_total"); !ok || v < 1 {
		t.Fatalf("dpr_server_batches_total = %v after workload", v)
	}
	// The committed gauge reflects the worker's own cut view, refreshed from
	// the finder on the heartbeat cadence; the client's commit wait polls the
	// finder directly, so the gauge can trail the wait briefly. Poll past the
	// refresh race instead of trusting a single scrape.
	committedBefore, _ := findMetric(before, "dpr_worker_committed_version")
	deadline := time.Now().Add(10 * time.Second)
	for {
		committedAfter, ok := findMetric(scrapeMetrics(t, w1ObsHTTP), "dpr_worker_committed_version")
		if ok && committedAfter > committedBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("committed version did not advance with the workload: %v -> %v",
				committedBefore, committedAfter)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// /debug/dpr decodes on both store kinds.
	wst := scrapeDebug(t, w1ObsHTTP)
	if wst.Kind != "dfaster" || wst.Worker != 1 {
		t.Fatalf("worker snapshot: %+v", wst)
	}
	if wst.CommittedVersion == 0 {
		t.Fatalf("worker snapshot shows no committed progress: %+v", wst)
	}
	// The cadence explains itself: the pump is adaptive behind the heartbeat,
	// after a committed workload the gap it yields follows the last seal's
	// duration, and cut changes stream in from the finder.
	if wst.CommitPump != "adaptive" || wst.CheckpointIntervalMS <= 0 || wst.CommitGapMS <= 0 || !wst.MetaWatch {
		t.Fatalf("worker snapshot: commit_pump %q checkpoint_interval_ms %v commit_gap_ms %v meta_watch %v",
			wst.CommitPump, wst.CheckpointIntervalMS, wst.CommitGapMS, wst.MetaWatch)
	}
	// Every commit the worker started either opened a round or joined one.
	if wst.RoundsInitiated+wst.RoundsJoined == 0 {
		t.Fatalf("worker snapshot: rounds_initiated %d rounds_joined %d after a committed workload",
			wst.RoundsInitiated, wst.RoundsJoined)
	}
	// Why memory is where it is: the log's boundaries, in order, the
	// committed version compaction is held to, and at least the slab the
	// tail is in backed by memory. The workload's keys hold index chains, and
	// so few keys fill no 8-entry bucket of dpr-server's 1<<16.
	if l := wst.Log; l == nil || l.Tail == 0 || l.Begin > l.Head || l.Head > l.ReadOnly || l.ReadOnly > l.Tail ||
		l.Committed == 0 || l.CompactTrigger <= 0 || l.Mapped <= 0 || l.IndexChains <= 0 || l.IndexFullLines != 0 {
		t.Fatalf("worker snapshot: log %+v", l)
	}
	if v, ok := findMetric(after, "dpr_store_index_chains"); !ok || v <= 0 {
		t.Fatalf("dpr_store_index_chains = %v after workload", v)
	}
	rst := scrapeDebug(t, dredisObsHTTP)
	if rst.Kind != "dredis" || rst.Worker != 2 {
		t.Fatalf("dredis snapshot: %+v", rst)
	}

	// Finder-side families: both workers registered, version reports flowing.
	fm := scrapeMetrics(t, finderObsHTTP)
	if v, ok := findMetric(fm, "dpr_finder_workers"); !ok || v < 2 {
		t.Fatalf("dpr_finder_workers = %v, want >= 2", v)
	}
	if v, ok := findMetric(fm, "dpr_finder_version_reports_total"); !ok || v < 1 {
		t.Fatalf("dpr_finder_version_reports_total = %v", v)
	}
	// Announcements crossed the wire: the finder holds a closing version, and
	// its Vmax is never below it.
	closing, ok := findMetric(fm, "dpr_finder_closing_version")
	if vmax, _ := findMetric(fm, "dpr_finder_vmax"); !ok || closing < 1 || vmax < closing {
		t.Fatalf("dpr_finder_closing_version = %v, dpr_finder_vmax = %v", closing, vmax)
	}
	if fst := scrapeDebug(t, finderObsHTTP); fst.Kind != "finder" || fst.Closing == 0 || fst.Vmax < fst.Closing {
		t.Fatalf("finder snapshot: closing_version %d vmax %d", fst.Closing, fst.Vmax)
	}

	// The in-process client resolved at least one commit-latency probe: the
	// histogram on the default registry has samples.
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if v, ok := findMetric(sb.String(), "dpr_client_commit_latency_seconds_count"); !ok || v < 1 {
		t.Fatalf("dpr_client_commit_latency_seconds_count = %v, want >= 1\n%s", v, sb.String())
	}
}

func scrapeMetrics(t *testing.T, host string) string {
	t.Helper()
	resp, err := http.Get("http://" + host + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", host, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: %s", host, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func scrapeDebug(t *testing.T, host string) obs.DPRState {
	t.Helper()
	resp, err := http.Get("http://" + host + "/debug/dpr")
	if err != nil {
		t.Fatalf("scrape %s/debug/dpr: %v", host, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s/debug/dpr: %s", host, resp.Status)
	}
	var st obs.DPRState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode %s/debug/dpr: %v", host, err)
	}
	return st
}

// findMetric returns the value of the first sample line whose metric name
// starts with name (so labeled series match too), summing is not needed for
// the single-worker assertions here.
func findMetric(exposition, name string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		rest, ok := strings.CutPrefix(line, name)
		if !ok {
			continue
		}
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		return v, true
	}
	return 0, false
}
