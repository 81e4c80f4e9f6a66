package libdpr_test

import (
	"fmt"
	"testing"

	"dpr/internal/allocpin"
	"dpr/internal/core"
	"dpr/internal/libdpr"
)

// sessionBatches returns one step of a session's life at a steady ~1 ms seal
// cadence: a batch of b operations started and its reply digested, the reply
// carrying the worker's cut, which moves every 1 000 batches. Between two moves
// every reply repeats the cut folded last — by generation when co-located, by
// its entries when it came off the wire.
func sessionBatches(tb testing.TB, b int, colocated bool) func() {
	s, err := libdpr.NewSession(&cutOnlyMeta{}, true)
	if err != nil {
		tb.Fatal(err)
	}
	versions := make([]core.Version, b)
	cut := core.Cut{1: 0, 2: 0}
	reply := libdpr.BatchReply{Versions: versions, Cut: cut}
	n := 0
	return func() {
		if n++; n%1000 == 0 {
			sealed := core.Version(n / 1000)
			cut[1], cut[2] = sealed, sealed
			if colocated {
				reply.CutGen = uint64(sealed)
			}
		}
		for i := range versions {
			versions[i] = core.Version(n/1000 + 1)
		}
		h, err := s.NextBatch(b)
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.CompleteBatch(1, h, reply); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkSessionBatch is the client half of the operation path alone:
// NextBatch + CompleteBatch per batch.
func BenchmarkSessionBatch(b *testing.B) {
	for _, size := range []int{1, 64} {
		for _, colocated := range []bool{true, false} {
			b.Run(fmt.Sprintf("b=%d/colocated=%v", size, colocated), func(b *testing.B) {
				step := sessionBatches(b, size, colocated)
				for i := 0; i < 2000; i++ {
					step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}

// TestSessionBatchZeroAlloc pins the session's bookkeeping at no allocation per
// batch and none per fold: 2 000 batches cross two cut moves.
func TestSessionBatchZeroAlloc(t *testing.T) {
	for _, colocated := range []bool{true, false} {
		step := sessionBatches(t, 64, colocated)
		for i := 0; i < 2000; i++ {
			step()
		}
		allocpin.Zero(t, fmt.Sprintf("colocated=%v: a session batch", colocated), 2000, step)
	}
}
