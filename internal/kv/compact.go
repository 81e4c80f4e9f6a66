package kv

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dpr/internal/core"
)

// Log compaction (FASTER's ShiftBeginAddress + copy-forward). The log grows
// forever under RCU updates — the first update of a record after every
// version shift is a copy — and compaction reclaims the dead prefix: it scans
// from the begin address, re-appends at the tail what must stay, and moves
// the begin address (and the in-memory head) past what it scanned, so chain
// traversals simply stop there.
//
// What must stay is decided against the DPR cut, not against "newest wins":
// a later Restore(v) or Recover(v) may land on any v at or above this store's
// committed version S (its position in the cut; CommittedBy), so
//
//	for every key and every v >= S, the newest visible record at a version
//	<= v stays reachable, and chains stay in version order.
//
// A record is therefore droppable only when it is invisible (purged, or
// inside a rolled-back range) or its key has a newer visible record at a
// version <= S. The newest visible record at or below S — the key's floor —
// and everything above it must stay. A floor is re-appended only when it is
// its key's head-most visible record: moving it past a newer one would
// reorder the chain, and a recovery scan relinks in address order. Otherwise
// it is pinned, the pass stops there, and resumes once S has passed the
// newer record. A pass also stops at the first record stamped above S. A
// floor that is a tombstone is simply dropped: everything older goes with
// it, and absent reads the same. With no committed source (S = 0) nothing is
// ever reclaimed.
//
// The scan is in log order, but the verdicts are made a bucket chain at a
// time (judgeBucket): the first scanned record of a bucket walks its chain
// once, re-appends the floors below the pass's end, and leaves in
// index.keep the lowest address of the chain that is still needed in place.
// Every later record of that bucket below that address is dropped without
// looking at the chain again, so a pass touches each resident record about
// twice — once in the scan, once in its chain's walk — however long the
// chains are.
//
// Compaction is a state machine like a checkpoint or a rollback and runs
// under smMu, but in steps of compactStepBytes that give the mutex up the
// moment a commit or a rollback asks for it (smWaiting), so it never sits
// between BeginCommit and the seal, nor in front of a version shift. Slab
// memory is released after an epoch drain, outside the mutex.

const (
	// compactStepBytes bounds the log one step scans before it lets go of the
	// state-machine mutex; a step ends on a record boundary.
	compactStepBytes = 16 << 10
	// compactFloor and compactGrowth pace the store's own compactor the way
	// GOGC paces a collector: a cycle starts when the resident log exceeds
	// compactGrowth times what the last full cycle kept, and never below
	// compactFloor.
	compactFloor  = 16 << 20
	compactGrowth = 4
)

// CompactStep is what one compaction step did, as OnCompactStep reports it.
type CompactStep struct {
	// Scanned is the log the begin address moved over, Copied the part of it
	// re-appended at the tail, in Moved records; the rest was dropped.
	Scanned, Copied int64
	Moved           int
	// Held is how long the step held the state-machine mutex: the most a
	// commit arriving mid-step could have waited, had the step not yielded.
	Held time.Duration
}

// CommittedBy installs the source of S, the version at or below which this
// store can no longer be rolled back: a DPR worker's own position in the
// committed cut. It must never run ahead of a later Restore or Recover
// target; lagging is only conservative. The compactor calls it once per step,
// holding no store lock. Without a source nothing is reclaimable.
func (s *Store) CommittedBy(fn func() core.Version) { s.committed.Store(&fn) }

// CommittedVersion returns S as the compactor sees it: what the source says,
// and never above the persisted version — a version this store has not made
// durable cannot be committed, whatever a cut entry left behind by an earlier
// incarnation of the same worker id claims.
func (s *Store) CommittedVersion() core.Version {
	if fn := s.committed.Load(); fn != nil {
		return min((*fn)(), s.PersistedVersion())
	}
	return 0
}

// OnCompactStep installs an observer called after every compaction step that
// moved the begin address (the serving layer's metrics hook). Pass nil to
// remove.
func (s *Store) OnCompactStep(fn func(CompactStep)) {
	if fn == nil {
		s.compactObs.Store(nil)
		return
	}
	s.compactObs.Store(&fn)
}

// Compact reclaims the log prefix [begin, upTo) as far as the committed
// version allows right now, step by step, yielding to commits and rollbacks
// in between, and returns the records copied forward and the bytes dropped.
// upTo is clamped to the read-only boundary (only frozen regions compact).
// It returns early, without error, where a record pins the pass (see above)
// or when the prefix is not resident (eviction has moved the head past the
// begin address: the scan needs memory).
func (s *Store) Compact(upTo int64) (copied int, reclaimed int64, err error) {
	total, err := s.compactTo(upTo)
	return total.Moved, total.Scanned - total.Copied, err
}

// compactTo is Compact with everything its steps did, summed (Held excepted).
func (s *Store) compactTo(upTo int64) (total CompactStep, err error) {
	for {
		more, st, err := s.compactStep(upTo)
		total.Scanned += st.Scanned
		total.Copied += st.Copied
		total.Moved += st.Moved
		if err != nil || !more {
			return total, err
		}
		select {
		case <-s.closed:
			return total, nil
		default:
		}
	}
}

// compactStep runs one step: at most compactStepBytes of scanning under smMu,
// less if a commit or rollback asks for the mutex. more reports whether
// another step could make progress now.
func (s *Store) compactStep(upTo int64) (more bool, st CompactStep, err error) {
	committed := s.CommittedVersion() // before the mutex: the source is foreign code
	if committed == 0 {
		return false, st, nil // nothing is known to be committed: nothing is garbage
	}
	for s.smWaiting.Load() != 0 {
		runtime.Gosched() // a state machine asked first; do not barge in front of it
	}
	s.smMu.Lock()
	start := time.Now()
	s.purgeWG.Wait() // PURGE writes invalid bits into the records scanned here

	begin := s.log.begin.Load()
	oldHead := s.log.head.Load()
	if ro := s.log.readOnly.Load(); upTo > ro {
		upTo = ro
	}
	if upTo <= begin || oldHead > begin {
		s.smMu.Unlock()
		return false, st, nil
	}
	end := min(upTo, begin+compactStepBytes)
	pass := compactPass{committed: committed, ranges: *s.rolledBack.Load(), begin: begin, upTo: upTo, did: &st}
	pos, stopped := begin, false
	err = s.log.scan(begin, end, func(addr int64, r recordView) bool {
		if m := r.meta(); m&metaInvalid == 0 && !rangesContain(pass.ranges, core.Version(m&metaVersionMask)) {
			h := keyHash(r.key())
			keep := s.index.keep(h)
			if addr >= *keep {
				// Not known to be droppable: judge its bucket's chains (again,
				// if it was pinned when last looked at — S may have moved).
				if !s.judgeBucket(h, keep, &pass) {
					more, stopped = true, true // asked to yield mid-chain
					return false
				}
				if addr >= *keep {
					stopped = true // pinned
					return false
				}
			}
		}
		pos = addr + int64(r.totalSize())
		if s.smWaiting.Load() != 0 {
			more, stopped = true, true
			return false
		}
		return true
	})
	if err != nil {
		s.smMu.Unlock()
		return false, st, fmt.Errorf("kv: compact scan: %w", err)
	}
	if !stopped {
		// Every record that starts below end was visited; what is left of
		// [pos, end) is padding.
		pos = max(pos, end)
		more = pos < upTo
	}
	if pos > begin {
		// Everything below pos is now garbage. Flushing below begin is
		// pointless, so the flushed boundary moves with it; the next seal's
		// record carries the new begin address together with the copies.
		s.log.begin.Store(pos)
		s.log.advanceFlushed(pos)
		s.log.advanceHead(pos)
	}
	st.Scanned = pos - begin
	st.Held = time.Since(start)
	s.smMu.Unlock()
	// Background work: pause for as long as the step took, before the slab
	// release below, too. Whoever was waiting for the mutex runs now, and the
	// processor is really given up — a Gosched hands it straight back when
	// nothing else is queued, and two stores compacting at once would then
	// keep every processor out of the network poller for milliseconds. A
	// sleep can overshoot by a millisecond in a quiet process, though, so a
	// compactor that has fallen a quarter of a trigger behind stops being
	// polite.
	if trigger := s.compactTrigger(); s.log.tail.Load()-pos <= trigger+trigger/4 {
		time.Sleep(st.Held)
	} else {
		runtime.Gosched()
	}

	if pos > begin {
		if oldHead>>slabBits < pos>>slabBits {
			// Wait for every operation that might hold a view below pos, then
			// recycle the slab memory.
			s.waitDrain()
			s.log.releaseSlabs(oldHead, pos)
		}
		if f := s.compactObs.Load(); f != nil {
			(*f)(st)
		}
	}
	return more, st, nil
}

// compactPass is what one step's verdicts are made against.
type compactPass struct {
	committed   core.Version
	ranges      []versionRange
	begin, upTo int64 // floors in [begin, upTo) are re-appended; above upTo they stay
	// seen is judgeBucket's scratch: the distinct keys of the chain being
	// walked, in order of first appearance.
	seen []chainKey
	did  *CompactStep // the step's tally of what was re-appended
}

// chainKey is one key's state during a chain walk.
type chainKey struct {
	key    []byte // aliases log memory
	floor  bool   // its newest visible record at or below S has been met
	pinned bool   // a visible record above S has been met
}

// judgeBucket walks the resident chains of h's bucket once each, newest
// first, under the bucket's lock: per key, records above S stay, the first
// one at or below S is the floor, and everything after it is droppable. A
// floor below pass.upTo is re-appended at the tail of its own chain (version
// stamp preserved) if nothing newer of its key is in the way, and stays
// pinned otherwise; a tombstone floor is just dropped. *keep is left at the
// lowest address of the bucket's chains still needed in place — every record
// of the bucket below it is droppable, now and later (S only grows, and what
// was rolled back stays so; records yet to be written land above it). It
// reports false, with *keep untouched, if a commit or rollback asked for the
// state machine mid-walk; copies made by then merely shadow their originals.
func (s *Store) judgeBucket(h uint64, keep *int64, pass *compactPass) bool {
	mu := s.index.lock(h)
	mu.Lock()
	defer mu.Unlock()
	needed := int64(math.MaxInt64) // lowest address needed in place so far
	chains := s.index.bucket(h).chains()
	for i := range chains {
		e := &chains[i]
		pass.seen = pass.seen[:0] // a key's records are all in one chain
		for cur := e.head(); cur != nilAddress && cur >= pass.begin; {
			if s.smWaiting.Load() != 0 {
				return false
			}
			r, ok := s.log.view(cur)
			if !ok {
				break
			}
			next := r.prev()
			m := r.meta()
			ver := core.Version(m & metaVersionMask)
			if m&metaInvalid != 0 || rangesContain(pass.ranges, ver) {
				cur = next
				continue
			}
			k := pass.chainKey(r.key())
			switch {
			case k.floor:
				// Shadowed at or below S: droppable.
			case ver > pass.committed:
				k.pinned = true
				needed = min(needed, cur)
			default:
				k.floor = true
				switch {
				case cur >= pass.upTo || (k.pinned && m&metaTombstone == 0):
					needed = min(needed, cur) // out of this pass's range, or pinned under a newer record
				case m&metaTombstone == 0:
					rec := s.log.writeRecord(e.head(), uint64(ver), false, r.key(), r.value(), r.valLen())
					e.link(rec.addr)
					pass.did.Moved++
					pass.did.Copied += int64(rec.totalSize())
					needed = min(needed, rec.addr)
				}
			}
			cur = next
		}
	}
	if needed == math.MaxInt64 {
		// Nothing here must stay. Whatever is written to this bucket from now
		// on lands at or above the tail.
		needed = s.log.tail.Load()
	}
	*keep = needed
	return true
}

// chainKey finds or adds key in the walk's scratch. Chains hold a handful of
// distinct keys, so a linear search beats hashing.
func (p *compactPass) chainKey(key []byte) *chainKey {
	for i := range p.seen {
		if string(p.seen[i].key) == string(key) {
			return &p.seen[i]
		}
	}
	p.seen = append(p.seen, chainKey{key: key})
	return &p.seen[len(p.seen)-1]
}

// compactLoop is the store's own compactor: after every seal (the only time
// the compactable range grows) it opens a cycle if the resident log has
// outgrown the trigger, and works the open cycle toward its end. A cycle that
// is pinned behind the committed version waits for the next seal.
func (s *Store) compactLoop() {
	defer s.wg.Done()
	var end, kept int64 // the open cycle's target address (0: none) and what it has copied so far
	for {
		select {
		case <-s.closed:
			return
		case <-s.compactKick:
		}
		if end == 0 {
			if s.log.tail.Load()-s.log.head.Load() <= s.compactTrigger() {
				continue
			}
			end, kept = s.log.readOnly.Load(), 0
		}
		did, _ := s.compactTo(end) // a scan error means an evicted range: nothing to do about it here
		kept += did.Copied
		if s.log.begin.Load() >= end {
			s.compactKept.Store(kept)
			end = 0
		}
	}
}

// compactTrigger is the resident log size above which the next cycle starts:
// compactGrowth times what the last full cycle found worth keeping (what it
// copied forward — not what was written meanwhile, or a slow cycle would
// raise its successor's trigger and slow that one too).
func (s *Store) compactTrigger() int64 {
	return max(compactFloor, compactGrowth*s.compactKept.Load())
}

// BeginAddress returns the log's begin address (everything below has been
// compacted away).
func (s *Store) BeginAddress() int64 { return s.log.begin.Load() }

// LogSize returns the logical size of the live log region.
func (s *Store) LogSize() int64 { return s.log.tail.Load() - s.log.begin.Load() }

// LogState is the HybridLog's shape at one instant, for diagnostics: the four
// boundaries, the committed version compaction is held to, the resident size
// its next cycle starts at, and the slab bytes backed by memory.
type LogState struct {
	Begin, Head, ReadOnly, Tail int64
	Committed                   core.Version
	CompactTrigger              int64
	Mapped                      int64
}

// IndexOccupancy returns the hash index's claimed entries — the chains in
// use — and its full buckets, whose eight entries are all claimed: a key with
// a new tag there shares another tag's chain. Many full buckets say that
// BucketCount is too small for the key count.
func (s *Store) IndexOccupancy() (chains, fullBuckets int64) { return s.index.occupancy() }

// LogState returns the log boundaries and compaction's inputs.
func (s *Store) LogState() LogState {
	return LogState{
		Begin:          s.log.begin.Load(),
		Head:           s.log.head.Load(),
		ReadOnly:       s.log.readOnly.Load(),
		Tail:           s.log.tail.Load(),
		Committed:      s.CommittedVersion(),
		CompactTrigger: s.compactTrigger(),
		Mapped:         s.log.mapped.Load(),
	}
}
