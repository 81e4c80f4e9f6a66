package main

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"time"

	"dpr/internal/cluster"
	"dpr/internal/core"
	"dpr/internal/metadata"
	"dpr/internal/workload"
)

// This file is the crash_recover workload's failure injector and its fate
// checker. The fate rules are those of internal/chaos's history checker (a
// write is committed, rolled back, or of unknown fate; committed writes must
// stay readable-or-superseded, rolled-back writes must never be read back).
// That checker is unexported and shaped around a 64-key, b=1 session, so it
// cannot be called from here; this is its counterpart for batched sessions
// on key stripes, checked once by read-back after the last recovery settles.

// failure is one injected cluster.Manager.OnFailure() round.
type failure struct {
	call, ret int64 // OnFailure() call and return times
}

// injector calls OnFailure() every failEvery ± failJitter (seeded) from
// failFirst into the measured window, leaving the last second of the window
// free so the final recovery settles inside it.
type injector struct {
	mgr *cluster.Manager
	tr  *tracer

	mu       sync.Mutex
	failures []failure
	err      error
}

func (in *injector) run(seed int64, winStart, winEnd int64, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(seed))
	at := winStart + int64(failFirst)
	for at < winEnd-int64(time.Second) {
		if d := at - now(); d > 0 {
			t := time.NewTimer(time.Duration(d))
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
		}
		call := now()
		_, _, err := in.mgr.OnFailure()
		ret := now()
		in.tr.record("cluster.onfailure", call, ret)
		in.mu.Lock()
		in.failures = append(in.failures, failure{call: call, ret: ret})
		if err != nil && in.err == nil {
			in.err = err
		}
		in.mu.Unlock()
		at += int64(failEvery) + rng.Int63n(2*int64(failJitter)+1) - int64(failJitter)
	}
}

// count returns how many failures have been injected so far; failures are
// known to sessions by their 1-based ordinal.
func (in *injector) count() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.failures)
}

func (in *injector) get(ordinal int) failure {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.failures[ordinal-1]
}

// Write fates.
const (
	fCompletedOK uint8 = 1 << iota // the reply said OK (version recorded)
	fCommitted                     // observed inside a committed prefix, not an exception
	fResolved                      // fate fixed by a failure round or a drop
	fRolledBack                    // provably erased: executed above the recovered cut
	fInWindow                      // issued inside the measured window
)

type writeRec struct {
	key     int32 // index into the session's stripe
	flags   uint8
	version core.Version
	seq     uint64
}

// fateChecker shadows every write one crash_recover session issues. Payloads
// are unique per write (session id and issue index), so a read-back value
// names the write that produced it; the sequence number a write was sent
// under is recorded beside it, because sequence numbers are reused across
// world-lines and a payload cannot be.
type fateChecker struct {
	sid int

	mu            sync.Mutex
	recs          []writeRec
	live          []int32 // sent, unresolved, not yet committed; ascending seq
	committedHigh uint64
	lastWL        core.WorldLine

	ok, aborted   int64 // in-window writes completed OK / erased before completing
	erased        int64 // writes erased by injected failures, in or out of the window
	lostCommitted int64
	phantomWrites int64

	floor []int32 // per stripe key, the newest committed write (-1: none); see prepareReadback
}

func newFateChecker(sid, capacity int) *fateChecker {
	return &fateChecker{sid: sid, recs: make([]writeRec, 0, capacity)}
}

func (c *fateChecker) payload(idx int32) [8]byte {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], uint64(c.sid+1)<<56|uint64(idx)+1)
	return v
}

func (c *fateChecker) begin(key int32, inWindow bool) int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var f uint8
	if inWindow {
		f = fInWindow
	}
	c.recs = append(c.recs, writeRec{key: key, flags: f})
	return int32(len(c.recs) - 1)
}

func (c *fateChecker) sent(idx int32, seq uint64) {
	c.mu.Lock()
	r := &c.recs[idx]
	r.seq = seq
	c.live = append(c.live, idx)
	c.mu.Unlock()
}

// complete records a reply. A reply for a write a failure round already
// resolved is stale (it describes an erased execution) and is ignored, like
// the session tracker ignores it. Reports whether the write counts as done.
func (c *fateChecker) complete(idx int32, ok bool, version core.Version) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &c.recs[idx]
	if r.flags&fResolved != 0 || !ok {
		return false
	}
	r.flags |= fCompletedOK
	r.version = version
	if r.flags&fInWindow != 0 {
		c.ok++
	}
	return true
}

func (c *fateChecker) resolveLocked(r *writeRec, rolledBack bool) {
	r.flags |= fResolved
	if rolledBack {
		r.flags |= fRolledBack
	}
	c.erased++
	if r.flags&(fInWindow|fCompletedOK) == fInWindow {
		c.aborted++
	}
}

// drop resolves a write that was refused or discarded before it was sent: it
// never executed, so reading it back would be a phantom.
func (c *fateChecker) drop(idx int32) {
	c.mu.Lock()
	if r := &c.recs[idx]; r.flags&fResolved == 0 {
		c.resolveLocked(r, true)
	}
	c.mu.Unlock()
}

// markCommitted folds an observed committed prefix and exception list into
// the history; commitment is permanent.
func (c *fateChecker) markCommitted(prefix uint64, exceptions []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prefix > c.committedHigh {
		c.committedHigh = prefix
	}
	kept := c.live[:0]
	for _, idx := range c.live {
		r := &c.recs[idx]
		if r.seq <= prefix && !containsSeq(exceptions, r.seq) {
			r.flags |= fCommitted
			continue
		}
		kept = append(kept, idx)
	}
	c.live = kept
}

// onFailure digests an acknowledged SurvivalError. cutMax is the largest
// per-worker position of the recovered cut(s) it covers: a completed write
// executed above it is outside the cut whichever worker ran it — provably
// erased. At or below it the checker cannot tell (relaxed DPR lets
// beyond-prefix writes survive server-side), so those become unknown.
func (c *fateChecker) onFailure(surv *core.SurvivalError, cutMax core.Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if surv.SurvivingPrefix < c.committedHigh {
		c.lostCommitted++ // the rollback truncated a prefix once reported committed
		c.committedHigh = surv.SurvivingPrefix
	}
	liveSeqs := make(map[uint64]bool, len(c.live))
	for _, idx := range c.live {
		liveSeqs[c.recs[idx].seq] = true
	}
	for _, e := range surv.Exceptions {
		if e <= c.committedHigh && !liveSeqs[e] {
			c.lostCommitted++ // a committed seq came back as a rollback exception
		}
	}
	kept := c.live[:0]
	for _, idx := range c.live {
		r := &c.recs[idx]
		if r.seq <= surv.SurvivingPrefix && !containsSeq(surv.Exceptions, r.seq) {
			kept = append(kept, idx) // survives into the new world-line
			continue
		}
		c.resolveLocked(r, r.flags&fCompletedOK != 0 && r.version > cutMax)
	}
	c.live = kept
}

// prepareReadback fixes each stripe key's committed floor. Call once the
// session has settled: no fate changes after that.
func (c *fateChecker) prepareReadback(keys int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.floor = make([]int32, keys)
	for k := range c.floor {
		c.floor[k] = -1
	}
	for i := range c.recs {
		if r := &c.recs[i]; r.flags&fCommitted != 0 {
			c.floor[r.key] = int32(i)
		}
	}
}

// observe checks one read-back result for stripe key k against the history:
// the value must be the key's newest committed write or a later write of
// unknown fate, never an older one (committed data lost) and never one a
// failure provably erased (phantom).
func (c *fateChecker) observe(k int32, key [8]byte, found bool, value []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	floor := c.floor[k]
	if !found || len(value) != 8 {
		c.lostCommitted++ // every stripe key was preloaded
		return
	}
	if pre := workload.Value8(key); string(value) == string(pre[:]) {
		if floor >= 0 {
			c.lostCommitted++
		}
		return
	}
	v := binary.LittleEndian.Uint64(value)
	idx := int64(v&(1<<56-1)) - 1
	if int(v>>56) != c.sid+1 || idx < 0 || idx >= int64(len(c.recs)) || c.recs[idx].key != k {
		c.phantomWrites++ // a value this session never wrote to this key
		return
	}
	switch r := &c.recs[idx]; {
	case r.flags&fRolledBack != 0:
		c.phantomWrites++
	case int32(idx) < floor:
		c.lostCommitted++
	}
}

func (c *fateChecker) unsettled() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.live)
}

// containsSeq reports whether the ascending list xs holds seq.
func containsSeq(xs []uint64, seq uint64) bool {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(xs) && xs[lo] == seq
}

// recoveredCutMax composes the recovered cuts of world-lines (from, to] into
// their per-worker minimum and returns its largest position: the version
// above which an execution is provably outside the cut.
func recoveredCutMax(meta metadata.Service, from, to core.WorldLine) core.Version {
	var cut core.Cut
	for w := from + 1; w <= to; w++ {
		c, err := meta.RecoveredCut(w)
		if err != nil {
			return ^core.Version(0) // unknown: classify nothing as erased
		}
		if cut == nil {
			cut = c.Clone()
		} else {
			cut.Lower(c)
		}
	}
	var max core.Version
	for _, v := range cut {
		if v > max {
			max = v
		}
	}
	return max
}
