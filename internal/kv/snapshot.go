package kv

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dpr/internal/core"
	"dpr/internal/storage"
)

// CheckpointKind selects the checkpoint strategy, mirroring FASTER's two
// main flavours:
//
//   - FoldOver (the default, used throughout the paper's evaluation): mark
//     the log prefix read-only and flush the delta since the previous
//     checkpoint. Cheap incremental writes; recovery replays the whole log
//     prefix.
//   - Snapshot: write every live record at the checkpoint version to a
//     separate blob. Writes are proportional to the live set rather than
//     the update volume; recovery reads just the snapshot. The in-memory
//     log never flushes, so eviction (MemoryBudget) is unavailable.
type CheckpointKind uint8

// Checkpoint kinds.
const (
	FoldOver CheckpointKind = iota
	Snapshot
)

func (k CheckpointKind) String() string {
	if k == Snapshot {
		return "snapshot"
	}
	return "fold-over"
}

func snapBlobName(v core.Version) string { return fmt.Sprintf("snap-%d", v) }

// buildSnapshot serializes every record live at versions <= target into the
// snapshot blob's bytes. Called from the checkpoint state
// machine after the version drain: records <= target are frozen, so the scan
// is consistent. Index shards are scanned concurrently — each shard goroutine
// serializes its own buckets into a private buffer under the stripe locks,
// and the buffers are concatenated in shard order — so a snapshot's CPU cost
// divides across cores instead of stalling serving behind one linear walk.
func (s *Store) buildSnapshot(target core.Version, ranges []versionRange) []byte {
	nshards := s.index.shardCount()
	bufs := make([][]byte, nshards)
	counts := make([]int, nshards)
	s.index.forEachShard(func(si int) {
		var buf []byte
		var scratch [20]byte
		count := 0
		sh := &s.index.shards[si]
		for b := range sh.buckets {
			h := s.index.handle(si, b)
			// Hold the bucket lock for the walk: concurrent in-place updates
			// to current-version records in the same chain touch record
			// values and lengths.
			mu := s.index.lock(h)
			mu.Lock()
			head := s.index.head(h)
			seen := map[string]bool{}
			memHead := s.log.head.Load()
			for addr := head; addr != nilAddress && addr >= memHead; {
				r, ok := s.log.view(addr)
				if !ok {
					break
				}
				key := r.key()
				ver := core.Version(r.version())
				if !seen[string(key)] && ver <= target &&
					!rangesContain(ranges, ver) && !r.invalid() {
					seen[string(key)] = true
					if !r.tombstone() {
						binary.LittleEndian.PutUint32(scratch[0:], uint32(len(key)))
						binary.LittleEndian.PutUint32(scratch[4:], uint32(r.valLen()))
						binary.LittleEndian.PutUint64(scratch[8:], uint64(ver))
						buf = append(buf, scratch[:16]...)
						buf = append(buf, key...)
						buf = append(buf, r.value()...)
						count++
					}
				}
				addr = r.prev()
			}
			mu.Unlock()
		}
		bufs[si] = buf
		counts[si] = count
	})
	total := 0
	size := 8
	for si := range bufs {
		total += counts[si]
		size += len(bufs[si])
	}
	// Header: record count, then the records.
	out := make([]byte, 8, size)
	binary.LittleEndian.PutUint64(out, uint64(total))
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}

// RecoverSnapshot reconstructs a store from a snapshot checkpoint at exactly
// the given version. If the checkpoint at v is a delta, the base chain is
// loaded down to the nearest full snapshot and applied bottom-up.
func RecoverSnapshot(device storage.Device, cfg Config, v core.Version) (*Store, error) {
	if cfg.Blob == "" {
		cfg.Blob = "hlog"
	}
	m, err := latestValid(device, cfg.Blob)
	if err != nil {
		return nil, err
	}
	return recoverSnapshot(device, cfg, v, m)
}

// recoverSnapshot is RecoverSnapshot given the newest valid checkpoint record
// (nil when the device holds none).
func recoverSnapshot(device storage.Device, cfg Config, v core.Version, m *checkpointMeta) (*Store, error) {
	chain, err := snapshotChain(device, v)
	if err != nil {
		return nil, err
	}
	// Visibility filter for delta layers, from the recovered checkpoint's
	// record when it is the newest. Full snapshots and deltas already exclude
	// rolled-back records at write time (and a rollback forces the next
	// checkpoint to restart the chain with a full snapshot), so this is
	// defense in depth, not load-bearing.
	var ranges []versionRange
	if m != nil && m.Version == v {
		ranges = m.Ranges
	}
	s := newStore(device, cfg)
	for _, layer := range chain {
		if layer.delta {
			err = s.applyDelta(layer.raw, ranges)
		} else {
			err = s.applyFullSnapshot(layer.raw)
		}
		if err != nil {
			s.Close()
			return nil, err
		}
	}
	s.persisted.Store(uint64(v))
	s.st.Store(uint64(makeState(PhaseRest, v+1)))
	s.maxRequestedCkpt.Store(uint64(v))
	// The recovered chain ends at v, so the next delta (base v) only needs
	// records allocated from here on.
	s.snapLowWater = s.log.tail.Load()
	s.snapForceFull = false
	if m != nil {
		s.ckptSeq = m.Seq
	}
	return s, nil
}

// applyFullSnapshot replays a full snapshot blob into a recovering store.
func (s *Store) applyFullSnapshot(raw []byte) error {
	n := binary.LittleEndian.Uint64(raw)
	off := 8
	for i := uint64(0); i < n; i++ {
		if off+16 > len(raw) {
			return errors.New("kv: truncated snapshot")
		}
		kl := int(binary.LittleEndian.Uint32(raw[off:]))
		vl := int(binary.LittleEndian.Uint32(raw[off+4:]))
		ver := binary.LittleEndian.Uint64(raw[off+8:])
		off += 16
		if off+kl+vl > len(raw) {
			return errors.New("kv: truncated snapshot")
		}
		key := raw[off : off+kl]
		val := raw[off+kl : off+kl+vl]
		off += kl + vl
		b := s.index.bucketFor(key)
		rec := s.log.writeRecord(s.index.head(b), ver, false, key, val, 0)
		s.index.setHead(b, rec.addr)
	}
	return nil
}
