package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"dpr/internal/core"
	"dpr/internal/storage"
)

// Checkpoint records. Every seal is a CPR fold-over: it writes the log range
// not yet on the device and one record describing it, concurrently, and waits
// for both: one device wait per seal. Nothing on the device says which
// record is the latest; recovery decides by validating what it finds.
//
// Records alternate between two slots, <blob>-ckpt-0 and <blob>-ckpt-1,
// chosen by the low bit of a sequence number that advances only when a seal
// succeeds. A seal therefore never overwrites the newest durable record: it
// overwrites the older one, or the leftovers of its own failed attempt. A
// record is valid when its own CRC matches and the CRC32C it carries matches
// the data it names; the data CRC is what makes the concurrent issue safe,
// because a record can land while its data has not. Recovery takes the valid
// record with the higher sequence number and otherwise falls back to the
// other slot, which is always complete: seals are single-flight, so the
// previous seal finished both of its writes before this one started.
//
// Layout, little-endian 8-byte words: magic, sequence, version, kind (always
// 0), begin address, data range [from, boundary), data CRC32C, rolled-back
// range count, the ranges as (lo, hi) pairs, CRC32C of everything before it.
// The data is log bytes [from, boundary). A record with a non-zero kind word
// does not decode: it names no log range, so recovery skips its slot as torn.

const (
	ckptMagic      = 0xD9C4_0003
	ckptFixedWords = 9
)

var crc32c = crc32.MakeTable(crc32.Castagnoli)

// errTornCheckpoint marks a record whose data is missing or does not match
// its CRC: the seal that wrote it never completed.
var errTornCheckpoint = errors.New("kv: checkpoint data does not match its record")

// checkpointMeta is one decoded checkpoint record.
type checkpointMeta struct {
	Seq      uint64
	Version  core.Version
	Begin    int64
	From     int64
	Boundary int64
	DataCRC  uint32
	Ranges   []versionRange
}

func ckptSlotName(blob string, seq uint64) string {
	return fmt.Sprintf("%s-ckpt-%d", blob, seq&1)
}

func (m *checkpointMeta) encode() []byte {
	buf := make([]byte, 0, (ckptFixedWords+2*len(m.Ranges)+1)*8)
	put := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	put(ckptMagic)
	put(m.Seq)
	put(uint64(m.Version))
	put(0) // kind
	put(uint64(m.Begin))
	put(uint64(m.From))
	put(uint64(m.Boundary))
	put(uint64(m.DataCRC))
	put(uint64(len(m.Ranges)))
	for _, r := range m.Ranges {
		put(uint64(r.Lo))
		put(uint64(r.Hi))
	}
	put(uint64(crc32.Checksum(buf, crc32c)))
	return buf
}

// decodeCheckpoint parses one slot's bytes; ok is false for anything a torn
// or foreign write could have left. Bytes past the record (an older, longer
// record in the same slot) are ignored.
func decodeCheckpoint(data []byte) (m *checkpointMeta, ok bool) {
	if len(data) < (ckptFixedWords+1)*8 {
		return nil, false
	}
	get := func(i int) uint64 { return binary.LittleEndian.Uint64(data[i*8:]) }
	n := get(8)
	if get(0) != ckptMagic || n > uint64(len(data)/16) {
		return nil, false
	}
	body := (ckptFixedWords + 2*int(n)) * 8
	if len(data) < body+8 || get(body/8) != uint64(crc32.Checksum(data[:body], crc32c)) ||
		get(3) != 0 || get(7)>>32 != 0 {
		return nil, false
	}
	m = &checkpointMeta{
		Seq:      get(1),
		Version:  core.Version(get(2)),
		Begin:    int64(get(4)),
		From:     int64(get(5)),
		Boundary: int64(get(6)),
		DataCRC:  uint32(get(7)),
	}
	for i := 0; i < int(n); i++ {
		m.Ranges = append(m.Ranges, versionRange{
			Lo: core.Version(get(ckptFixedWords + 2*i)),
			Hi: core.Version(get(ckptFixedWords + 2*i + 1)),
		})
	}
	return m, true
}

// readCheckpoints returns the records of both slots that decode, newest
// first. A device error is returned as such: a slot that cannot be read is
// not the same as a slot that is torn.
func readCheckpoints(device storage.Device, blob string) ([]*checkpointMeta, error) {
	var recs []*checkpointMeta
	for slot := uint64(0); slot < 2; slot++ {
		name := ckptSlotName(blob, slot)
		size := device.BlobSize(name)
		if size == 0 {
			continue
		}
		data, err := device.Read(name, 0, int(size))
		if errors.Is(err, storage.ErrBlobNotFound) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("kv: read checkpoint record: %w", err)
		}
		if m, ok := decodeCheckpoint(data); ok {
			recs = append(recs, m)
		}
	}
	if len(recs) == 2 && recs[0].Seq < recs[1].Seq {
		recs[0], recs[1] = recs[1], recs[0]
	}
	return recs, nil
}

// readLog reads log bytes [from, to) from the device a slab at a time. Bytes
// that are not there mean the seal that named them never finished
// (errTornCheckpoint); any other read error is the device's problem.
func readLog(device storage.Device, blob string, from, to int64, fn func(off int64, data []byte)) error {
	for off := from; off < to; {
		end := (off>>slabBits + 1) << slabBits
		if end > to {
			end = to
		}
		data, err := device.Read(blob, off, int(end-off))
		if errors.Is(err, storage.ErrBlobNotFound) || errors.Is(err, storage.ErrOutOfRange) {
			err = errTornCheckpoint
		}
		if err != nil {
			return fmt.Errorf("kv: read log: %w", err)
		}
		fn(off, data)
		off = end
	}
	return nil
}

// blobWrite is one device write of a seal.
type blobWrite struct {
	blob string
	off  int64
	data []byte
}

// writeAll issues every write at once and waits for all of them.
func writeAll(device storage.Device, writes []blobWrite) error {
	errs := make(chan error, len(writes)) // one send per write
	for _, w := range writes {
		device.WriteAsync(w.blob, w.off, w.data, func(err error) { errs <- err })
	}
	var first error
	for range writes {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// seal makes one checkpoint durable: the data writes and the record that
// describes them go out together and are awaited together. The caller holds
// smMu and has set the record's version and data range. On error nothing is
// considered durable and the same slot is reused by the retry.
func (s *Store) seal(m checkpointMeta, data []blobWrite) error {
	m.Seq = s.ckptSeq + 1
	m.Begin = s.log.begin.Load()
	m.Ranges = *s.rolledBack.Load()
	for _, w := range data {
		m.DataCRC = crc32.Update(m.DataCRC, crc32c, w.data)
	}
	writes := append(data, blobWrite{blob: ckptSlotName(s.cfg.Blob, m.Seq), data: m.encode()})
	if err := writeAll(s.device, writes); err != nil {
		return err
	}
	s.ckptSeq = m.Seq
	return nil
}

// Recover reconstructs a store from the device so that exactly the
// operations in versions <= v (minus rolled-back ranges) survive — the
// restart path for a failed worker. It requires a durable checkpoint at a
// version >= v (DPR only asks workers to recover to positions at or below
// their persisted version), except at v = 0: a device with no checkpoint on
// it yields an empty store there. A newest record that is torn — the crash
// landed mid-seal — is skipped in favour of the other slot. A device that
// cannot be read is an error, never taken for an empty one.
func Recover(device storage.Device, cfg Config, v core.Version) (*Store, error) {
	if cfg.Blob == "" {
		cfg.Blob = "hlog"
	}
	recs, err := readCheckpoints(device, cfg.Blob)
	if err != nil {
		return nil, err
	}
	for _, m := range recs {
		s, err := recoverFrom(device, cfg, m, v)
		if errors.Is(err, errTornCheckpoint) {
			continue
		}
		return s, err
	}
	if v == 0 {
		return NewStore(device, cfg), nil
	}
	return nil, errors.New("kv: no checkpoint on device")
}

func recoverFrom(device storage.Device, cfg Config, m *checkpointMeta, v core.Version) (*Store, error) {
	latest := m.Version
	if latest < v {
		return nil, fmt.Errorf("kv: newest checkpoint %d predates requested version %d", latest, v)
	}
	s := newStore(device, cfg)
	// Load the durable log prefix into memory (compacted region excluded),
	// checking the part the newest seal wrote against its record on the way.
	var crc uint32
	err := readLog(device, cfg.Blob, m.Begin, m.Boundary, func(off int64, data []byte) {
		slab := *s.log.ensureSlab(off >> slabBits)
		copy(slab[off&slabMask:], data)
		if end := off + int64(len(data)); end > m.From {
			crc = crc32.Update(crc, crc32c, data[max(m.From-off, 0):])
		}
	})
	if err == nil && crc != m.DataCRC {
		err = errTornCheckpoint
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	s.log.tail.Store(m.Boundary)
	s.log.readOnly.Store(m.Boundary)
	s.log.flushedUntil.Store(m.Boundary)
	s.log.begin.Store(m.Begin)
	s.log.head.Store(m.Begin) // nothing below begin was loaded
	// The recovered prefix is immutable (readOnly == tail), so lock-free
	// reads may serve from all of it immediately.
	s.log.frozen.Store(m.Boundary)

	// Visibility: checkpoint-recorded rollbacks plus everything after v.
	ranges := append([]versionRange(nil), m.Ranges...)
	if latest > v {
		ranges = append(ranges, versionRange{Lo: v, Hi: latest})
	}
	s.rolledBack.Store(&ranges)

	// Rebuild the index with one forward scan per shard, in parallel: every
	// scan walks the whole recovered prefix but links only the records that
	// hash into its own shard, so the rebuild's pointer writes are disjoint
	// (scans read the shared prev/meta words atomically; see recordView).
	errs := make([]error, s.index.shardCount())
	s.index.forEachShard(func(si int) {
		errs[si] = s.log.scan(m.Begin, m.Boundary, func(addr int64, r recordView) bool {
			ver := core.Version(r.version())
			if ver > v || rangesContain(ranges, ver) || r.invalid() {
				return true
			}
			b := s.index.bucketFor(r.key())
			if int(b>>48) != si {
				return true
			}
			r.setPrev(s.index.head(b))
			s.index.setHead(b, addr)
			return true
		})
	})
	for _, e := range errs {
		if e != nil {
			s.Close()
			return nil, e
		}
	}
	s.persisted.Store(uint64(v))
	s.st.Store(uint64(makeState(PhaseRest, latest+1)))
	s.maxRequestedCkpt.Store(uint64(latest))
	s.ckptSeq = m.Seq
	return s, nil
}
