package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dpr/internal/metadata"
	"dpr/internal/workload"
)

// tinyOpts keeps smoke tests fast: every figure driver must run end to end
// and emit its table, on drastically reduced sweeps and durations.
func tinyOpts() (Options, *bytes.Buffer) {
	var buf bytes.Buffer
	return Options{
		Out:      &buf,
		Duration: 150 * time.Millisecond,
		Keys:     1 << 12,
		Short:    true,
	}, &buf
}

func TestFig10Smoke(t *testing.T) {
	opt, buf := tinyOpts()
	if err := Fig10(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 10", "No Chkpts", "Cloud SSD", "uniform", "zipfian"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig11Smoke(t *testing.T) {
	opt, buf := tinyOpts()
	if err := Fig11(opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No DPR") {
		t.Fatalf("output: %s", buf.String())
	}
}

func TestFig12Smoke(t *testing.T) {
	opt, buf := tinyOpts()
	opt.Duration = 400 * time.Millisecond // needs a checkpoint to commit
	if err := Fig12(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "operation latency") || !strings.Contains(out, "commit    latency") {
		t.Fatalf("output: %s", out)
	}
}

func TestFig13Smoke(t *testing.T) {
	opt, buf := tinyOpts()
	if err := Fig13(opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trade-off") {
		t.Fatalf("output: %s", buf.String())
	}
}

func TestFig14Smoke(t *testing.T) {
	opt, buf := tinyOpts()
	if err := Fig14(opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cloud-ssd") {
		t.Fatalf("output: %s", buf.String())
	}
}

func TestFig15Smoke(t *testing.T) {
	opt, buf := tinyOpts()
	if err := Fig15(opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "co-located") {
		t.Fatalf("output: %s", buf.String())
	}
}

func TestFig16Smoke(t *testing.T) {
	opt, buf := tinyOpts()
	opt.Duration = 500 * time.Millisecond
	if err := Fig16(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"committed/s", "aborted/s", "recoveries completed: 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig17Smoke(t *testing.T) {
	opt, buf := tinyOpts()
	if err := Fig17(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"D-Redis", "Redis+Proxy", "saturated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig18Smoke(t *testing.T) {
	opt, buf := tinyOpts()
	if err := Fig18(opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "latency distributions") {
		t.Fatalf("output: %s", buf.String())
	}
}

func TestFig19Smoke(t *testing.T) {
	opt, buf := tinyOpts()
	if err := Fig19(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Sync", "Eventual", "N/A", "D-FASTER"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	opt, buf := tinyOpts()
	if err := AblationFinders(opt); err != nil {
		t.Fatal(err)
	}
	if err := AblationStrictVsRelaxed(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"exact", "approximate", "hybrid", "strict", "relaxed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPreload(t *testing.T) {
	bc, err := buildCluster(clusterSpec{
		shards: 1, ckptEvery: 0, backend: BackendNull, finder: metadata.FinderApproximate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.close()
	if err := bc.preload(1000, 64); err != nil {
		t.Fatal(err)
	}
}

func TestRunReportsErrors(t *testing.T) {
	// Sanity: run must count completions, not enqueues.
	bc, err := buildCluster(clusterSpec{
		shards: 1, ckptEvery: 20 * time.Millisecond, backend: BackendNull,
		finder: metadata.FinderApproximate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.close()
	res, err := bc.run(runSpec{
		clients: 2, batch: 8, dist: workload.Uniform, readFrac: 0.5,
		keys: 1 << 10, duration: 200 * time.Millisecond, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.ErrorCount > res.Ops/100 {
		t.Fatalf("too many errors: %d of %d", res.ErrorCount, res.Ops)
	}
}
