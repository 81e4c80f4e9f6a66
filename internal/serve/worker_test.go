package serve_test

import (
	"bufio"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpr/internal/leakcheck"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/serve"
	"dpr/internal/wire"
)

// TestBatchInstrumentsSampled pins the serving layer's sampling contract: on
// one lane the batch and operation counters are exact, the two batch
// histograms record the first of every 64 executed batches, and a batch
// refused by the store or rejected for its world-line is neither counted nor
// recorded, and does not use up a sample.
func TestBatchInstrumentsSampled(t *testing.T) {
	t.Cleanup(func() { leakcheck.Check(t) }) // registered first: runs after the worker is down
	reg := obs.NewRegistry()
	s := &fakeStore{data: make(map[string][]byte), current: 1}
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	w, err := serve.NewWorker("fake", libdpr.WorkerConfig{ID: 1, CheckpointInterval: time.Hour, Obs: reg}, s, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	lane := w.NewLane()
	defer lane.Close()
	var sc serve.Scratch
	req := wire.BatchRequest{Ops: []wire.Op{put("a", "1"), get("a"), put("b", "2")}}
	req.Header.SessionID, req.Header.WorldLine = 7, w.DPR().WorldLine()
	req.Header.NumOps = uint32(len(req.Ops))
	seq := uint64(1)
	execute := func() *wire.ErrorReply {
		req.Header.SeqStart = seq
		_, er := w.Execute(&req, s, &sc, lane)
		if er == nil {
			seq += uint64(len(req.Ops))
		}
		return er
	}
	check := func(batches uint64) {
		t.Helper()
		text := exposition(t, reg)
		for name, want := range map[string]uint64{
			"dpr_server_batches_total":               batches,
			"dpr_server_ops_total":                   batches * uint64(len(req.Ops)),
			"dpr_server_batch_latency_seconds_count": (batches + 63) / 64,
			"dpr_server_batch_ops_count":             (batches + 63) / 64,
		} {
			if got := metricValue(t, text, name); got != want {
				t.Fatalf("after %d batches: %s = %d, want %d", batches, name, got, want)
			}
		}
	}

	for i := 0; i < 128; i++ {
		if er := execute(); er != nil {
			t.Fatalf("batch %d refused: %+v", i, er)
		}
	}
	check(128)

	// The next executed batch is the third sample; a refused and a rejected
	// one come first.
	s.refusing.Store(true)
	if er := execute(); er == nil || er.Code != wire.ErrCodeBadOwner {
		t.Fatalf("refusing store: %+v", er)
	}
	s.refusing.Store(false)
	next, _ := meta.BeginRecovery()
	eventually(t, "the worker rolls back", func() bool { return w.DPR().WorldLine() == next })
	if er := execute(); er == nil || er.Code != wire.ErrCodeRejected {
		t.Fatalf("old world-line: %+v", er)
	}
	check(128)

	req.Header.WorldLine, seq = next, 0 // the session's sequence space restarts with the world-line
	for i := 0; i < 72; i++ {
		if er := execute(); er != nil {
			t.Fatalf("batch %d on world-line %d refused: %+v", i, next, er)
		}
	}
	check(200)

	// Neither histogram's count reads as a batch rate.
	text := exposition(t, reg)
	for _, name := range []string{"dpr_server_batch_latency_seconds", "dpr_server_batch_ops"} {
		if !strings.Contains(helpOf(text, name), "sampled: one batch in 64 per lane") {
			t.Fatalf("%s's HELP does not say it is sampled:\n%s", name, text)
		}
	}
}

// helpOf returns the HELP text of the family name.
func helpOf(text, name string) string {
	for _, line := range strings.Split(text, "\n") {
		if help, ok := strings.CutPrefix(line, "# HELP "+name+" "); ok {
			return help
		}
	}
	return ""
}

func exposition(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// metricValue returns the value of the one series of name (labels aside).
func metricValue(t *testing.T, text, name string) uint64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+"{"); ok {
			v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			return uint64(v)
		}
	}
	t.Fatalf("no series %s in:\n%s", name, text)
	return 0
}
