package leakcheck

import (
	"strings"
	"testing"
	"time"
)

func park(stop chan struct{}) { <-stop }

// TestSurvivingSeesAModuleGoroutine: a goroutine parked in this module's code
// is reported while it lives and not after it has been released; the test's
// own goroutine never is.
func TestSurvivingSeesAModuleGoroutine(t *testing.T) {
	stop := make(chan struct{})
	go park(stop)
	var got []string
	for i := 0; i < 100 && len(got) == 0; i++ {
		time.Sleep(time.Millisecond)
		got = surviving()
	}
	if len(got) != 1 || !strings.Contains(got[0], "leakcheck.park(") {
		t.Fatalf("surviving() = %q, want the parked goroutine alone", got)
	}
	close(stop)
	Check(t)
}
