package libdpr_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/libdpr"
	"dpr/internal/metadata"
)

// rerouteStep is one transmission of an issued batch to the session's one
// worker. Batch 0 is a read whose reply is lost with its connection; the
// client re-drives it through metadata to the same worker, which has executed
// later batches of the session by then. A step either executes and advances
// the worker's session fence, with its reply lost or delivered, or is
// expected to bounce off the fence with ErrStaleBatch.
type rerouteStep struct {
	batch      int // index into the issued batches
	redirected bool
	lost       bool // executed, but the reply never reaches the session
	wantStale  bool
}

// TestSessionRerouteAcrossOwnershipFlip drives the client's re-drive of a
// stranded read: the read executed, its reply was lost with the connection,
// and the session's later batches executed at the same worker behind it. The
// re-drive carries the Redirected header flag and arrives below the worker's
// session fence. The fence must survive — the flagged read is admitted below
// it without regressing it, an unflagged replay stays fenced out — and the
// commit floor must keep rising: every sequence number commits with no
// exceptions.
func TestSessionRerouteAcrossOwnershipFlip(t *testing.T) {
	const batchSize = 2
	cases := []struct {
		name    string
		batches int
		steps   []rerouteStep
	}{
		{
			// The worker executed batch 1 behind the stranded read; the
			// flagged re-drive is admitted, and the fence has not regressed:
			// an unflagged replay of the read still bounces.
			name:    "redirect_below_fence_admits",
			batches: 2,
			steps: []rerouteStep{
				{batch: 0, lost: true},
				{batch: 1},
				{batch: 0, redirected: true},
				{batch: 0, wantStale: true},
			},
		},
		{
			// A retransmission without the flag is indistinguishable from a
			// stale replay and must stay fenced out; the flagged re-drive of
			// the same range then goes through.
			name:    "unflagged_below_fence_stays_fenced",
			batches: 2,
			steps: []rerouteStep{
				{batch: 0, lost: true},
				{batch: 1},
				{batch: 0, wantStale: true},
				{batch: 0, redirected: true},
			},
		},
		{
			// Redirected admission is not a blank check: once the worker has
			// executed the re-driven read, a duplicate unflagged replay of it
			// is stale, and later batches keep executing in order.
			name:    "fence_intact_after_redirects",
			batches: 3,
			steps: []rerouteStep{
				{batch: 0, lost: true},
				{batch: 0, redirected: true},
				{batch: 1},
				{batch: 0, wantStale: true},
				{batch: 2},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 1, metadata.FinderApproximate, 5*time.Millisecond)
			s, err := libdpr.NewSession(h.meta, true)
			if err != nil {
				t.Fatal(err)
			}
			w, lane, kvSess := h.workers[0], h.lanes[0], h.kvSess[0]

			headers := make([]libdpr.BatchHeader, tc.batches)
			for i := range headers {
				hdr, err := s.NextBatch(batchSize)
				if err != nil {
					t.Fatal(err)
				}
				headers[i] = hdr
			}
			var lastSeq uint64
			for _, hdr := range headers {
				if end := hdr.SeqStart + uint64(hdr.NumOps) - 1; end > lastSeq {
					lastSeq = end
				}
			}

			for si, st := range tc.steps {
				hdr := headers[st.batch]
				hdr.Redirected = st.redirected
				_, err := w.AdmitBatchGuarded(hdr, lane)
				if st.wantStale {
					if !errors.Is(err, libdpr.ErrStaleBatch) {
						t.Fatalf("step %d: err = %v, want ErrStaleBatch", si, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: admit: %v", si, err)
				}
				versions := make([]core.Version, hdr.NumOps)
				var maxVer core.Version
				for i := range versions {
					key := []byte(fmt.Sprintf("k-%d", hdr.SeqStart+uint64(i)))
					var ver core.Version
					if st.batch == 0 {
						_, _, ver = kvSess.Read(key, 0)
					} else if ver, err = kvSess.Upsert(key, []byte("v")); err != nil {
						t.Fatal(err)
					}
					versions[i] = ver
					if ver > maxVer {
						maxVer = ver
					}
				}
				w.RecordDependency(maxVer, hdr.Dep)
				w.ReleaseBatch(hdr, lane, true)
				if st.lost {
					continue
				}
				if cerr := s.CompleteBatch(w.ID(), hdr, w.Reply(versions)); cerr != nil {
					t.Fatalf("step %d: complete: %v", si, cerr)
				}
			}

			if err := s.WaitCommit(lastSeq, 5*time.Second, nil); err != nil {
				t.Fatalf("commit floor stalled across the re-drive: %v", err)
			}
			p, exc := s.Committed()
			if p < lastSeq || len(exc) != 0 {
				t.Fatalf("prefix %d (exceptions %v), want >= %d with none", p, exc, lastSeq)
			}
		})
	}
}
