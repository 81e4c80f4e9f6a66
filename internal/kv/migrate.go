package kv

import (
	"errors"

	"dpr/internal/core"
)

// Migration support: the donor side scans the frozen prefix of the moving
// partitions shard by shard, and the receive side relinks imported records at
// the head of the target's hash chains without the in-place-update walk (the
// keys are new to the store).

// ScanFrozen walks every record live at versions ≤ boundary whose key the
// predicate selects, calling emit once per key with the newest surviving
// record (tombstoned and rolled-back records are skipped). The caller must
// have sealed the boundary first (commit past it), so records ≤ boundary are
// immutable and the scan is consistent.
//
// Index shards are walked concurrently (index.forEachShard), so emit may be
// invoked from multiple goroutines at once and must synchronize internally.
// The key and value slices alias log memory under the bucket lock and are
// valid only for the duration of the call: emit must copy what it keeps.
//
// Only the in-memory region of the log is walked; callers migrate partitions out of stores whose working set is
// resident (the chaos and integration configurations never evict).
//
//dpr:ignore cut-worldline the kv layer is deliberately world-line-agnostic: erasure is modeled as rolled-back version ranges (RolledBackRanges below), and the (world-line, boundary) pairing is pinned by the caller (dfaster migrateOut) which seals the boundary on its own tracked world-line before scanning
func (s *Store) ScanFrozen(boundary core.Version, pred func(key []byte) bool, emit func(key, val []byte, ver core.Version)) {
	ranges := s.RolledBackRanges()
	s.index.forEachShard(func(si int) {
		// Epoch-protected per bucket, like an operation: compaction recycles
		// the slabs below the head once everyone who saw the old head is out.
		slot := s.epochs.Register()
		defer s.epochs.Unregister(slot)
		sh := &s.index.shards[si]
		seen := map[string]bool{}
		for b := range sh.buckets {
			mu := s.index.lock(s.index.handle(si, b))
			slot.Enter()
			mu.Lock()
			memHead := s.log.head.Load()
			chains := sh.buckets[b].chains()
			for i := range chains {
				clear(seen) // a key's records are all in one chain
				for addr := chains[i].head(); addr != nilAddress && addr >= memHead; {
					r, ok := s.log.view(addr)
					if !ok {
						break
					}
					key := r.key()
					ver := core.Version(r.version())
					if !seen[string(key)] && ver <= boundary &&
						!rangesContain(ranges, ver) && !r.invalid() && pred(key) {
						seen[string(key)] = true
						if !r.tombstone() {
							emit(key, r.value(), ver)
						}
					}
					addr = r.prev()
				}
			}
			mu.Unlock()
			slot.Exit()
		}
	})
}

// Ingest appends key=val at the head of its hash chain, returning the
// version the write executed in. It is Upsert without the in-place-update
// walk: migrated keys are new to the receiving store, so the newest-record
// scan would always miss. Receive-side only — using Ingest on a key the
// store already holds shadows the old record instead of updating it, which
// is still correct (chains resolve newest-first) but wastes log space.
func (sess *Session) Ingest(key, val []byte) (core.Version, error) {
	if len(key) == 0 {
		return 0, errors.New("kv: empty key")
	}
	sess.slot.Enter()
	defer sess.slot.Exit()
	st := sess.store.loadState()
	ver := st.version()
	s := sess.store
	h := keyHash(key)
	mu := s.index.lock(h)
	mu.Lock()
	defer mu.Unlock()
	e := s.index.chain(h)
	rec := s.log.writeRecord(e.head(), uint64(ver), false, key, val, len(val))
	e.link(rec.addr)
	return ver, nil
}
