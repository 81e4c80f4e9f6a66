// Cut-advance frames: the unsolicited worker→client push channel of the
// event-driven commit plane. Batch replies piggyback the worker's cut view,
// but a session that stops sending would never learn that its last writes
// committed — it would have to poll the finder. Instead the worker pushes a
// FrameCutAdvance to every subscribed connection when its cut snapshot
// changes (libdpr.Worker.OnCutAdvance), so idle sessions see commit progress
// in push latency rather than poll cadence.
//
// The frame follows the batch-path discipline (the fan-out runs per cut change
// per connection, every couple of milliseconds with the pump on): appends into
// a caller-owned buffer, a decoder that validates the count before allocating.
package wire

import "dpr/internal/core"

// FrameCutAdvance is an unsolicited worker→client frame announcing the
// worker's latest (world-line, cut) view (continuing the Frame* tag space).
// Clients must tolerate it at any point between reply frames.
const FrameCutAdvance byte = 8

// CutAdvance pairs a pushed cut with the world-line it was observed on.
// Version numbers restart across world-lines, so the pair travels together:
// folding a cut into a session on a different world-line could commit erased
// operations whose tokens merely collide numerically.
type CutAdvance struct {
	WorldLine core.WorldLine
	Cut       core.Cut
}

// AppendCutAdvanceEncoded appends a cut-advance frame built from a
// pre-encoded cut section (AppendCut output, as libdpr.Worker.OnCutAdvance
// publishes it): the fan-out splices the snapshot's bytes instead of
// re-serializing the cut map for every subscriber.
//
//dpr:noalloc
func AppendCutAdvanceEncoded(dst []byte, wl core.WorldLine, encodedCut []byte) []byte {
	dst = appendU64(dst, uint64(wl))
	return append(dst, encodedCut...)
}

// DecodeCutAdvance parses a cut-advance payload into a, reusing a.Cut; nothing
// aliases p, and the count is checked against p's size before any allocation.
// Through a connection's memo, a.Cut is nil when the cut repeats the last cut
// section decoded on it (reply or push); a nil memo decodes every frame.
//
//dpr:noalloc
func (m *CutMemo) DecodeCutAdvance(a *CutAdvance, p []byte) error {
	d := &decoder{buf: p}
	a.WorldLine = core.WorldLine(d.u64())
	return m.decodeCut(d, a.WorldLine, &a.Cut)
}
