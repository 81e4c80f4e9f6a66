package scale

import (
	"fmt"
	"runtime"

	"dpr/internal/core"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
	"dpr/internal/obs"
)

// Footprint reports measured bytes per idle session in the two
// representations the harness switches between.
type Footprint struct {
	// HydratedBytes is a dormant session held live: a libdpr.Session plus
	// its tracker, after one operation lifecycle (so the maps and run
	// buffers a real session accretes are included).
	HydratedBytes float64
	// ArchivedBytes is the same session dehydrated into the flat
	// core.SessionArchive slice.
	ArchivedBytes float64
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// IdleFootprint builds n sessions, runs each through one complete operation
// (issue, complete, commit via a covering cut), and measures per-session
// heap cost live vs archived. The returned numbers are what EXPERIMENTS.md
// pins: an idle session must cost O(few words) archived, and the hydrated
// cost is the baseline it is compared against.
func IdleFootprint(n int) (Footprint, error) {
	store := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate, Obs: obs.NewRegistry()})
	if err := store.RegisterWorker(0, "shard-0"); err != nil {
		return Footprint{}, err
	}
	if err := store.ReportVersion(0, 1, nil); err != nil {
		return Footprint{}, err
	}
	cut, _, wl, _ := store.State()

	var fp Footprint
	base := heapInUse()

	live := make([]*libdpr.Session, n)
	vbuf := [1]core.Version{1}
	for i := range live {
		s := libdpr.ResumeSession(store, libdpr.SessionState{
			ID:      uint64(i),
			Archive: core.SessionArchive{NextSeq: 1, Relaxed: true},
		})
		h, err := s.NextBatch(1)
		if err != nil {
			return Footprint{}, err
		}
		if err := s.CompleteBatch(0, h, libdpr.BatchReply{Versions: vbuf[:]}); err != nil {
			return Footprint{}, err
		}
		s.Tracker().AdvanceCommitted(wl, cut)
		live[i] = s
	}
	fp.HydratedBytes = float64(heapInUse()-base) / float64(n)

	archived := make([]core.SessionArchive, n)
	for i, s := range live {
		st, ok := s.Evict()
		if !ok {
			return Footprint{}, fmt.Errorf("scale: session %d not quiescent at eviction", i)
		}
		archived[i] = st.Archive
	}
	// Release the hydrated population; the next heap reading sees only the
	// flat archive slice.
	live = nil
	_ = live
	fp.ArchivedBytes = float64(heapInUse()-base) / float64(n)
	runtime.KeepAlive(archived)
	return fp, nil
}
