package kv

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"

	"dpr/internal/core"
	"dpr/internal/epoch"
)

// Status reports the outcome of an operation.
type Status uint8

const (
	// StatusOK: the operation completed with a result.
	StatusOK Status = iota
	// StatusNotFound: read/RMW/delete of an absent (or tombstoned) key.
	StatusNotFound
	// StatusPending: the record lives in the evicted (device-only) log
	// region; the result arrives later via CompletePending (§5.4).
	StatusPending
	// StatusError: the operation failed; see the completion's Err.
	StatusError
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusPending:
		return "PENDING"
	default:
		return "ERROR"
	}
}

// emptyValue is the canonical non-nil zero-length value, so empty reads
// never collapse to nil (nil means "no value" at the wire boundary).
var emptyValue = make([]byte, 0)

// Completed is the deferred result of a PENDING operation.
type Completed struct {
	// Serial echoes the caller-supplied correlation id.
	Serial uint64
	Status Status
	// Value is set for reads that found the key.
	Value []byte
	// Version is the version the operation completed in — its token.
	Version core.Version
	Err     error
}

// Session is a sequential logical thread of execution against one Store
// (FASTER's session concept). Operations return the version they executed
// in, which the DPR layer uses as the operation's token. A session is not
// safe for concurrent use, except CompletePending/Deliver which synchronize
// internally with background completion threads.
type Session struct {
	store *Store
	slot  *epoch.Slot

	mu        sync.Mutex
	completed []Completed
	inflight  int
	done      chan struct{} // closed & replaced when inflight drops to 0
	unclaimed atomic.Int64  // went PENDING, not yet returned by CompletePending
}

// NewSession registers a new session with the store.
func (s *Store) NewSession() *Session {
	return &Session{
		store: s,
		slot:  s.epochs.Register(),
		done:  make(chan struct{}),
	}
}

// Close unregisters the session. Pending operations may still complete.
func (sess *Session) Close() {
	sess.store.epochs.Unregister(sess.slot)
}

// Slot returns the session's epoch slot, in the store's table (Store.Epochs).
// A caller that enters it around several of the session's operations — an
// execution lane holding it for a batch — makes each of them enter nothing:
// an operation enters the slot only if it is not entered already. The caller
// is the session's owner and, like an operation, must not block while it
// holds the slot.
func (sess *Session) Slot() *epoch.Slot { return sess.slot }

// taskSlot returns a slot for a background task to enter, a spare one or a
// new registration.
func (s *Store) taskSlot() *epoch.Slot {
	select {
	case slot := <-s.taskSlots:
		return slot
	default:
		return s.epochs.Register()
	}
}

// putTaskSlot keeps a task's slot for the next, or unregisters it.
func (s *Store) putTaskSlot(slot *epoch.Slot) {
	select {
	case s.taskSlots <- slot:
	default:
		s.epochs.Unregister(slot)
	}
}

// Upsert writes key=val, returning the version the write executed in.
// Upserts always complete synchronously: the write lands in the in-memory
// mutable region regardless of where older versions of the key live.
func (sess *Session) Upsert(key, val []byte) (core.Version, error) {
	if len(key) == 0 {
		return 0, errors.New("kv: empty key")
	}
	if !sess.slot.Held() { // entered already when the session's slot is a lane's (Slot)
		sess.slot.Enter()
		defer sess.slot.Exit()
	}
	st := sess.store.loadState()
	ver := st.version()
	s := sess.store
	h := keyHash(key)
	mu := s.index.lock(h)
	mu.Lock()
	defer mu.Unlock()
	e := s.index.chain(h)

	readOnly := s.log.readOnly.Load()
	head := s.log.head.Load()
	// Walk the in-memory chain looking for the newest record for this key.
	for addr := e.head(); addr != nilAddress && addr >= head; {
		r, ok := s.log.view(addr)
		if !ok {
			break
		}
		if string(r.key()) == string(key) {
			// In-place update: allowed only in the mutable region, for
			// records of the current version, with enough capacity.
			if addr >= readOnly && core.Version(r.version()) == ver &&
				!r.invalid() && len(val) <= r.valCap() {
				copy(r.valueCapSlice(), val)
				r.setValLen(len(val))
				r.setMeta(uint64(ver) & metaVersionMask) // clears tombstone
				return ver, nil
			}
			break
		}
		addr = r.prev()
	}
	// Read-copy-update: append a fresh record at the tail.
	rec := s.log.writeRecord(e.head(), uint64(ver), false, key, val, len(val))
	e.link(rec.addr)
	return ver, nil
}

// Delete writes a tombstone for key.
func (sess *Session) Delete(key []byte) (core.Version, error) {
	if len(key) == 0 {
		return 0, errors.New("kv: empty key")
	}
	if !sess.slot.Held() { // entered already when the session's slot is a lane's (Slot)
		sess.slot.Enter()
		defer sess.slot.Exit()
	}
	st := sess.store.loadState()
	ver := st.version()
	s := sess.store
	h := keyHash(key)
	mu := s.index.lock(h)
	mu.Lock()
	defer mu.Unlock()
	e := s.index.chain(h)
	rec := s.log.writeRecord(e.head(), uint64(ver), true, key, nil, 0)
	e.link(rec.addr)
	return ver, nil
}

// Read returns the value for key. If the record has been evicted to the
// device, Read returns StatusPending and the result is delivered
// asynchronously to CompletePending with the given serial. The returned
// value is a fresh heap copy owned by the caller.
func (sess *Session) Read(key []byte, serial uint64) ([]byte, Status, core.Version) {
	var buf []byte
	return sess.ReadAppend(&buf, key, serial)
}

// ReadAppend is Read for the allocation-free hot path: when the key is found
// in memory, the value is copied (under the bucket lock, so concurrent
// in-place updates cannot tear it) into *arena via append, and the returned
// slice aliases that arena. The caller owns the arena and typically reuses
// it across a batch, trimming it to zero length between batches; values
// remain valid until the caller reuses the arena, even if later appends grow
// it. PENDING completions deliver caller-owned heap copies as before.
func (sess *Session) ReadAppend(arena *[]byte, key []byte, serial uint64) ([]byte, Status, core.Version) {
	if !sess.slot.Held() { // entered already when the session's slot is a lane's (Slot)
		sess.slot.Enter()
		defer sess.slot.Exit()
	}
	s := sess.store
	st := s.loadState()
	ver := st.version()
	ranges := *s.rolledBack.Load()
	h := keyHash(key)

	// Epoch-protected lock-free fast path: most reads resolve from the
	// frozen log region without ever touching the stripe lock.
	if out, status, handled := sess.readLockFree(arena, key, h, ranges); handled {
		return out, status, ver
	}

	mu := s.index.lock(h)
	mu.Lock()

	head := s.log.head.Load()
	addr := s.index.find(h)
	for addr != nilAddress && addr >= head {
		r, ok := s.log.view(addr)
		if !ok {
			break
		}
		if string(r.key()) == string(key) && !r.invalid() &&
			!rangesContain(ranges, core.Version(r.version())) {
			if r.tombstone() {
				mu.Unlock()
				return nil, StatusNotFound, ver
			}
			start := len(*arena)
			*arena = append(*arena, r.value()...)
			mu.Unlock()
			// Three-index slice: appends by the caller must not scribble
			// over values returned earlier from the same arena.
			out := (*arena)[start:len(*arena):len(*arena)]
			if out == nil {
				// Empty value read into an empty arena: stay non-nil so
				// found-but-empty is distinguishable from not-found.
				out = emptyValue
			}
			return out, StatusOK, ver
		}
		// No visible match here (another key, or a rolled-back version of this
		// one): keep walking to older records.
		addr = r.prev()
	}
	mu.Unlock()
	if addr == nilAddress || addr < s.log.begin.Load() {
		// End of chain, or the remainder lies below the compaction
		// frontier (all garbage): the key is absent.
		return nil, StatusNotFound, ver
	}
	// The chain continues below the in-memory head: go PENDING and resolve
	// from the device on a background worker (§5.4).
	sess.beginPending()
	k := append([]byte(nil), key...)
	task := func() {
		val, status, err := s.readFromDevice(addr, k, ranges)
		sess.deliver(Completed{Serial: serial, Status: status, Value: val, Version: ver, Err: err})
	}
	select {
	case s.pendingCh <- task:
	default:
		// Queue full: execute inline rather than dropping.
		go task()
	}
	return nil, StatusPending, ver
}

// readLockFree is the lock-free read fast path. It runs inside the caller's
// epoch-protected section and traverses the key's chain using only atomic
// loads: the bucket's entries, and each record's prev/meta words. Keys are
// immutable after publication, and value bytes below the frozen boundary can
// never be touched by an in-place update again (see hlog.frozen), so a
// visible frozen match is copied out with no lock at all. handled=false
// defers to the locked path: a visible match in the mutable region (its
// value may change in place under the stripe lock), a concurrently evicted
// slab, a chain descending below the in-memory head (PENDING hand-off), or a
// store that has not yet published a frozen boundary.
func (sess *Session) readLockFree(arena *[]byte, key []byte, h uint64, ranges []versionRange) ([]byte, Status, bool) {
	s := sess.store
	frozen := s.log.frozen.Load()
	if frozen == 0 {
		return nil, StatusNotFound, false
	}
	head := s.log.head.Load()
	addr := s.index.find(h)
	for addr != nilAddress && addr >= head {
		r, ok := s.log.view(addr)
		if !ok {
			return nil, StatusNotFound, false
		}
		if string(r.key()) == string(key) {
			// One meta load: visibility and tombstone must agree on the same
			// observed state even if a concurrent in-place writer or PURGE
			// pass transitions the word.
			m := r.meta()
			if m&metaInvalid == 0 && !rangesContain(ranges, core.Version(m&metaVersionMask)) {
				if addr >= frozen {
					return nil, StatusNotFound, false
				}
				if m&metaTombstone != 0 {
					return nil, StatusNotFound, true
				}
				start := len(*arena)
				*arena = append(*arena, r.value()...)
				out := (*arena)[start:len(*arena):len(*arena)]
				if out == nil {
					// Empty value read into an empty arena: stay non-nil so
					// found-but-empty is distinguishable from not-found.
					out = emptyValue
				}
				return out, StatusOK, true
			}
		}
		addr = r.prev()
	}
	if addr == nilAddress || addr < s.log.begin.Load() {
		// End of chain, or only compacted garbage remains: definitively
		// absent, no lock needed.
		return nil, StatusNotFound, true
	}
	return nil, StatusNotFound, false
}

// readFromDevice walks the on-device chain suffix starting at addr,
// stopping at the compaction begin address (records below are garbage and
// can never be the live version of any key).
func (s *Store) readFromDevice(addr int64, key []byte, ranges []versionRange) ([]byte, Status, error) {
	begin := s.log.begin.Load()
	for addr != nilAddress && addr >= begin {
		dr, err := s.log.readDisk(addr)
		if err != nil {
			return nil, StatusError, err
		}
		if string(dr.key) == string(key) && !dr.invalid() &&
			!rangesContain(ranges, core.Version(dr.version())) {
			if dr.tombstone() {
				return nil, StatusNotFound, nil
			}
			return append([]byte(nil), dr.value...), StatusOK, nil
		}
		addr = dr.prev
	}
	return nil, StatusNotFound, nil
}

// RMW performs a read-modify-write: it interprets the current value as a
// little-endian uint64 (absent = 0) and adds delta, FASTER's canonical sum
// RMW, returning the new value (fetch-add semantics). If the base record is
// evicted, RMW goes PENDING; the modification is applied when the device
// read completes, in the version current at that time, and the new value is
// delivered via the completion.
func (sess *Session) RMW(key []byte, delta uint64, serial uint64) (Status, core.Version, uint64) {
	if len(key) == 0 {
		return StatusError, 0, 0
	}
	if !sess.slot.Held() { // entered already when the session's slot is a lane's (Slot)
		sess.slot.Enter()
		defer sess.slot.Exit()
	}
	s := sess.store
	st := s.loadState()
	ver := st.version()
	ranges := *s.rolledBack.Load()
	h := keyHash(key)
	mu := s.index.lock(h)
	mu.Lock()
	e := s.index.chain(h)

	readOnly := s.log.readOnly.Load()
	head := s.log.head.Load()
	addr := e.head()
	for addr != nilAddress && addr >= head {
		r, ok := s.log.view(addr)
		if !ok {
			break
		}
		if string(r.key()) == string(key) && !r.invalid() &&
			!rangesContain(ranges, core.Version(r.version())) {
			var base uint64
			if !r.tombstone() && r.valLen() >= 8 {
				base = binary.LittleEndian.Uint64(r.value())
			}
			newVal := base + delta
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], newVal)
			if addr >= readOnly && core.Version(r.version()) == ver &&
				!r.tombstone() && r.valCap() >= 8 {
				copy(r.valueCapSlice(), buf[:])
				r.setValLen(8)
			} else {
				rec := s.log.writeRecord(e.head(), uint64(ver), false, key, buf[:], 8)
				e.link(rec.addr)
			}
			mu.Unlock()
			return StatusOK, ver, newVal
		}
		addr = r.prev()
	}
	if addr == nilAddress || addr < s.log.begin.Load() {
		// Absent key (chain ended, or only compacted garbage remains):
		// initialize to delta.
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], delta)
		rec := s.log.writeRecord(e.head(), uint64(ver), false, key, buf[:], 8)
		e.link(rec.addr)
		mu.Unlock()
		return StatusOK, ver, delta
	}
	mu.Unlock()
	// Base is on the device: resolve asynchronously, then apply.
	sess.beginPending()
	k := append([]byte(nil), key...)
	startAddr := addr
	task := func() {
		val, status, err := s.readFromDevice(startAddr, k, ranges)
		if status == StatusError {
			sess.deliver(Completed{Serial: serial, Status: StatusError, Err: err})
			return
		}
		var base uint64
		if status == StatusOK && len(val) >= 8 {
			base = binary.LittleEndian.Uint64(val)
		}
		newVal := base + delta
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], newVal)
		// Apply under the bucket lock in the version current now, on a slot of
		// the task's own: the session's belongs to its owner, which may be
		// inside another operation, or holding it for a batch.
		slot := s.taskSlot()
		slot.Enter()
		applySt := s.loadState()
		applyVer := applySt.version()
		mu := s.index.lock(h)
		mu.Lock()
		rec := s.log.writeRecord(e.head(), uint64(applyVer), false, k, buf[:], 8)
		e.link(rec.addr)
		mu.Unlock()
		slot.Exit()
		s.putTaskSlot(slot)
		out := make([]byte, 8)
		copy(out, buf[:])
		sess.deliver(Completed{Serial: serial, Status: StatusOK, Version: applyVer, Value: out})
	}
	select {
	case s.pendingCh <- task:
	default:
		go task()
	}
	return StatusPending, ver, 0
}

func (sess *Session) beginPending() {
	sess.unclaimed.Add(1)
	sess.mu.Lock()
	sess.inflight++
	sess.mu.Unlock()
}

func (sess *Session) deliver(c Completed) {
	sess.mu.Lock()
	sess.completed = append(sess.completed, c)
	sess.inflight--
	if sess.inflight == 0 {
		close(sess.done)
		sess.done = make(chan struct{})
	}
	sess.mu.Unlock()
}

// Pending reports whether an operation of the session went PENDING and
// CompletePending has not returned it yet.
func (sess *Session) Pending() bool { return sess.unclaimed.Load() != 0 }

// CompletePending returns all completions delivered so far. If wait is true
// it first blocks until no operation remains in flight — the paper's
// CompletePending() dependency-resolution point (§5.4). A session with no
// operation pending returns at once, without taking the lock.
func (sess *Session) CompletePending(wait bool) []Completed {
	if sess.unclaimed.Load() == 0 {
		return nil
	}
	if wait {
		for {
			sess.mu.Lock()
			if sess.inflight == 0 {
				sess.mu.Unlock()
				break
			}
			ch := sess.done
			sess.mu.Unlock()
			<-ch
		}
	}
	sess.mu.Lock()
	out := sess.completed
	sess.completed = nil
	sess.mu.Unlock()
	sess.unclaimed.Add(-int64(len(out)))
	return out
}
