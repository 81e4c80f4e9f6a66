// Cut-advance frames: the unsolicited worker→client push channel of the
// event-driven commit plane. Batch replies piggyback the worker's cut view,
// but a session that stops sending would never learn that its last writes
// committed — it would have to poll the finder. Instead the worker pushes a
// FrameCutAdvance to every subscribed connection when its cut snapshot
// changes (libdpr.Worker.OnCutAdvance), so idle sessions see commit progress
// in push latency rather than poll cadence.
//
// The frame follows the batch-path discipline: Append* into a caller-owned
// scratch buffer (//dpr:noalloc — the push fan-out runs once per cut change
// per connection, but cut changes arrive every couple of milliseconds with
// the commit pump on), an alias-decoding DecodeCutAdvanceInto with
// count-validation before any allocation, and trailing-byte rejection.
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

// AppendCutAdvance appends the cut-advance encoding to dst.
//
//dpr:noalloc
func AppendCutAdvance(dst []byte, wl core.WorldLine, c core.Cut) []byte {
	dst = appendU64(dst, uint64(wl))
	return AppendCut(dst, c)
}

// AppendCutAdvanceEncoded appends a cut-advance frame built from a
// pre-encoded cut section (AppendCut output, as published by
// libdpr.Worker.OnCutAdvance): the per-connection fan-out splices the
// snapshot's bytes instead of re-serializing the cut map for every
// subscriber.
//
//dpr:noalloc
func AppendCutAdvanceEncoded(dst []byte, wl core.WorldLine, encodedCut []byte) []byte {
	dst = appendU64(dst, uint64(wl))
	return append(dst, encodedCut...)
}

// DecodeCutAdvance is DecodeCutAdvanceInto through the connection's memo:
// a.Cut is nil when the pushed cut repeats the last cut section decoded on this
// connection, reply or push, and the memo's map when it does not.
//
//dpr:noalloc
func (m *CutMemo) DecodeCutAdvance(a *CutAdvance, p []byte) error {
	d := &decoder{buf: p}
	a.WorldLine = core.WorldLine(d.u64())
	return m.decodeCut(d, a.WorldLine, &a.Cut)
}

// DecodeCutAdvanceInto parses a cut-advance payload into a, reusing a.Cut.
// Nothing in the decoded form aliases p (cuts are small and copied into the
// map), but the count is still validated against the payload size before any
// allocation so a corrupt frame cannot drive a gigantic pre-allocation.
//
//dpr:noalloc
func DecodeCutAdvanceInto(a *CutAdvance, p []byte) error {
	return (*CutMemo)(nil).DecodeCutAdvance(a, p)
}
