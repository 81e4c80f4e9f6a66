package dredis

import (
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/libdpr/statetest"
	"dpr/internal/redisclone"
	"dpr/internal/storage"
)

// TestStateObjectContract holds the wrapper to the store's side of libdpr's
// commit contract: LASTSAVE says when a BGSAVE is durable, and the wrapper
// times the seal from the request.
func TestStateObjectContract(t *testing.T) {
	so := newStateObject(storage.NewNull(), "contract", redisclone.AOFOff)
	defer so.close()
	statetest.Run(t, so)
}

// TestFailedSaveEndsTheSeal: a BGSAVE whose snapshot write fails ends its
// seal without a persist notification, so the store is idle again and the
// next idle begin starts a seal that lands.
func TestFailedSaveEndsTheSeal(t *testing.T) {
	dev := storage.NewFlaky(storage.NewNull())
	so := newStateObject(dev, "failed", redisclone.AOFOff)
	defer so.close()
	landed := make(chan core.Version, 4)
	so.OnPersist(func(v core.Version, _ time.Duration) { landed <- v })
	dev.FailNextWrites(1)
	if started, err := so.BeginCommitIdle(so.CurrentVersion(), 0); !started || err != nil {
		t.Fatalf("BeginCommitIdle on an idle store: started %v, %v", started, err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if started, err := so.BeginCommitIdle(so.CurrentVersion(), 0); err != nil {
			t.Fatal(err)
		} else if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the store is still sealing 5s after its BGSAVE failed")
		}
	}
	select {
	case v := <-landed:
		if v < 2 || dev.FailedOps() != 1 {
			t.Fatalf("OnPersist(%d) after %d failed writes, want the retry's version 2 after one", v, dev.FailedOps())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the seal after the failed BGSAVE never landed")
	}
}
