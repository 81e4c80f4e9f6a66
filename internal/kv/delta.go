package kv

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dpr/internal/core"
	"dpr/internal/storage"
)

// Delta snapshot checkpoints. In Snapshot mode with SnapshotFullEvery > 1,
// checkpoints between full snapshots persist only the records written since
// the previous checkpoint: versions in (base, target], where base is the
// previous persisted version. Recovery walks the base pointers down to the
// nearest full snapshot and applies the chain bottom-up; within a delta each
// key appears at most once (newest wins), and applying layers in version
// order leaves the newest record at each bucket-chain head.
//
// The scan is bounded in two ways. The version filter picks the window; the
// address low-water mark (the log tail captured before the previous
// checkpoint's version shift, see runCheckpoint) proves every in-window
// record lives at or above it, so each bucket-chain walk stops there. Cost is
// O(buckets + dirty), not O(live).
//
// Unlike full snapshots, deltas must include tombstones: a delete since the
// base checkpoint has to shadow the key the base chain would otherwise
// resurrect. Each delta record therefore carries a meta word (version plus
// the tombstone bit) instead of a bare version.

const (
	deltaMagic      = 0xD9C4_0002
	deltaHeaderSize = 24 // magic, base version, record count
)

func deltaBlobName(v core.Version) string { return fmt.Sprintf("sdelta-%d", v) }

// buildDelta serializes every record in versions (base, target] into the
// delta blob's bytes. Called from the checkpoint state
// machine after the version drain, like buildSnapshot: in-window records are
// frozen, shards scan concurrently, and each bucket chain is walked under its
// stripe lock (records are only chain-reachable once fully written, so the
// walk never sees a half-built record).
//
// The scan visits only the buckets mutated since the last harvest (the dirty
// lists maintained by index.setHead), not the whole bucket array — the
// property that makes a pump-driven seal every few ms affordable. The window
// invariant: every record with version > base sits in a bucket that is on
// the harvested list or will be re-marked before the next harvest. Records
// in (base, target] drained before this harvest, so their marks are in the
// list; a record in target+1 written between the version shift and its
// bucket's visit is walked here (it sits at the chain top), re-marking the
// bucket for the next window, and one written after the visit re-marks it
// itself (its stamp was just cleared).
func (s *Store) buildDelta(target, base core.Version, lowWater int64, ranges []versionRange) []byte {
	nshards := s.index.shardCount()
	bufs := make([][]byte, nshards)
	counts := make([]int, nshards)
	s.index.forEachShard(func(si int) {
		var buf []byte
		var scratch [16]byte
		count := 0
		sh := &s.index.shards[si]
		list := sh.harvestDirty()
		for _, b := range list {
			h := s.index.handle(si, int(b))
			mu := s.index.lock(h)
			mu.Lock()
			sh.dirtyStamp[b] = 0
			stop := lowWater
			if memHead := s.log.head.Load(); memHead > stop {
				stop = memHead
			}
			sawNewer := false
			seen := map[string]bool{}
			for addr := s.index.head(h); addr != nilAddress && addr >= stop; {
				r, ok := s.log.view(addr)
				if !ok {
					break
				}
				key := r.key()
				ver := core.Version(r.version())
				if ver > target {
					sawNewer = true
				}
				if ver > base && ver <= target && !r.invalid() &&
					!rangesContain(ranges, ver) && !seen[string(key)] {
					seen[string(key)] = true
					meta := uint64(ver)
					vlen := 0
					if r.tombstone() {
						meta |= metaTombstone
					} else {
						vlen = r.valLen()
					}
					binary.LittleEndian.PutUint32(scratch[0:], uint32(len(key)))
					binary.LittleEndian.PutUint32(scratch[4:], uint32(vlen))
					binary.LittleEndian.PutUint64(scratch[8:], meta)
					buf = append(buf, scratch[:16]...)
					buf = append(buf, key...)
					if vlen > 0 {
						buf = append(buf, r.value()[:vlen]...)
					}
					count++
				}
				addr = r.prev()
			}
			if sawNewer {
				sh.markDirty(uint64(b))
			}
			mu.Unlock()
		}
		sh.recycleDirty(list)
		bufs[si] = buf
		counts[si] = count
	})
	total := 0
	size := deltaHeaderSize
	for si := range bufs {
		total += counts[si]
		size += len(bufs[si])
	}
	out := make([]byte, deltaHeaderSize, size)
	binary.LittleEndian.PutUint64(out[0:], deltaMagic)
	binary.LittleEndian.PutUint64(out[8:], uint64(base))
	binary.LittleEndian.PutUint64(out[16:], uint64(total))
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}

// snapshotLayer is one blob of a snapshot chain.
type snapshotLayer struct {
	version core.Version
	delta   bool
	raw     []byte
}

// snapshotChain loads the blobs needed to reconstruct version v: the delta
// chain from v down to (and including) the nearest full snapshot, returned
// bottom-up in apply order.
func snapshotChain(device storage.Device, v core.Version) ([]snapshotLayer, error) {
	var chain []snapshotLayer
	cur := v
	for {
		if size := device.BlobSize(snapBlobName(cur)); size >= 8 {
			raw, err := device.Read(snapBlobName(cur), 0, int(size))
			if err != nil {
				return nil, err
			}
			chain = append(chain, snapshotLayer{version: cur, raw: raw})
			break
		}
		size := device.BlobSize(deltaBlobName(cur))
		if size < deltaHeaderSize {
			return nil, fmt.Errorf("kv: snapshot chain broken at version %d", cur)
		}
		raw, err := device.Read(deltaBlobName(cur), 0, int(size))
		if err != nil {
			return nil, err
		}
		if binary.LittleEndian.Uint64(raw) != deltaMagic {
			return nil, fmt.Errorf("kv: delta %d bad magic", cur)
		}
		base := core.Version(binary.LittleEndian.Uint64(raw[8:]))
		if base >= cur {
			return nil, fmt.Errorf("kv: delta %d base %d not below it", cur, base)
		}
		chain = append(chain, snapshotLayer{version: cur, delta: true, raw: raw})
		cur = base
	}
	// Reverse: apply the full snapshot first, then deltas in version order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, nil
}

// applyDelta replays one delta blob into a recovering store. Records are
// prepended to their bucket chains, so applied layers shadow earlier ones;
// tombstones are written as tombstone records for the same reason.
func (s *Store) applyDelta(raw []byte, ranges []versionRange) error {
	n := binary.LittleEndian.Uint64(raw[16:])
	off := deltaHeaderSize
	for i := uint64(0); i < n; i++ {
		if off+16 > len(raw) {
			return errors.New("kv: truncated delta")
		}
		kl := int(binary.LittleEndian.Uint32(raw[off:]))
		vl := int(binary.LittleEndian.Uint32(raw[off+4:]))
		meta := binary.LittleEndian.Uint64(raw[off+8:])
		off += 16
		if off+kl+vl > len(raw) {
			return errors.New("kv: truncated delta")
		}
		key := raw[off : off+kl]
		val := raw[off+kl : off+kl+vl]
		off += kl + vl
		ver := meta & metaVersionMask
		if rangesContain(ranges, core.Version(ver)) {
			continue
		}
		tombstone := meta&metaTombstone != 0
		b := s.index.bucketFor(key)
		rec := s.log.writeRecord(s.index.head(b), ver, tombstone, key, val, 0)
		s.index.setHead(b, rec.addr)
	}
	return nil
}
