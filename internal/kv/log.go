// Package kv implements the FasterKV cache-store used as D-FASTER's
// StateObject (paper §5): an epoch-protected latch-striped hash index over a
// HybridLog that spans volatile memory and a durable storage device, with
// in-place updates in the mutable region, read-copy-update beneath it,
// non-blocking fold-over checkpoints (CPR), relaxed-CPR PENDING operations
// for evicted records, and the non-blocking REST→THROW→PURGE rollback state
// machine of §5.5.
package kv

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"dpr/internal/storage"
)

// Log addresses are byte offsets into a logically infinite log. The log is
// materialized as fixed-size in-memory slabs; flushed prefixes also live on
// the storage device at the same offsets, so a single address space covers
// both memory and disk, exactly like FASTER's HybridLog.
const (
	slabBits = 20 // 1 MiB slabs
	slabSize = 1 << slabBits
	slabMask = slabSize - 1
	maxSlabs = 1 << 16 // 64 GiB logical address space

	recordHeaderSize = 32
	recordAlign      = 8

	// padMagic marks the unused tail of a slab when a record did not fit;
	// scanners skip to the next slab boundary.
	padMagic = math.MaxUint64
)

// Record meta bit layout (offset 8 in the header):
//
//	bits 0-47  version the record was written in
//	bit 62     tombstone (the record is a delete marker)
//	bit 63     invalid (purged by rollback)
const (
	metaVersionMask = (1 << 48) - 1
	metaTombstone   = 1 << 62
	metaInvalid     = 1 << 63
)

// hlog is the HybridLog: slab-backed storage plus the four region boundaries
//
//	0 ≤ head ≤ flushedUntil ≤ readOnly ≤ tail
//
// Addresses below head are on-device only (reads go PENDING); addresses in
// [head, readOnly) are in-memory and immutable (RCU on update); addresses in
// [readOnly, tail) are the mutable region where in-place updates happen.
type hlog struct {
	device storage.Device
	blob   string

	slabs [maxSlabs]atomic.Pointer[[]byte]

	tail         atomic.Int64
	readOnly     atomic.Int64
	flushedUntil atomic.Int64
	head         atomic.Int64
	// begin is the compaction frontier: addresses below it are reclaimed
	// garbage (0 ≤ begin ≤ head). See compact.go.
	begin atomic.Int64

	// frozen is the lock-free-read boundary (frozen ≤ readOnly): records
	// below it can never again be touched by an in-place update, because it
	// is published only after the checkpoint state machine's post-readOnly
	// epoch drain (every writer that could still have observed the older
	// read-only boundary has exited). Epoch-protected readers may therefore
	// copy values below frozen without the stripe lock: the drain's
	// synchronizes-with chain (writer Exit → AllObserved → frozen.Store →
	// reader frozen.Load) makes those plain value bytes happens-before any
	// lock-free read. 0 means "no frozen region yet" (reads take the locked
	// path).
	frozen atomic.Int64

	// allocMu serializes slab creation (not record allocation) and guards free.
	allocMu sync.Mutex
	// free holds the slabs releaseSlabs parked, pages dropped, for ensureSlab
	// to draw from: what compaction reclaims at the begin address is what the
	// tail grows into. A parked slab costs address space, not memory, and
	// reads all zero when it is handed out again.
	free []*[]byte
	// mapped is the bytes of the slabs installed in slabs (LogState.Mapped).
	mapped atomic.Int64

	// flushBuf and flushChunks are copyOut's staging memory, reused by every
	// seal (seals are single-flight and a device is done with the data once
	// its callback has fired).
	flushBuf    []byte
	flushChunks []blobWrite
}

// maxFlushBuf is the largest staging buffer copyOut keeps between seals; a
// larger flush (a bulk load sealed in one go) gets a one-off buffer.
const maxFlushBuf = 4 << 20

// liveSlabs counts the slabs of every log in the process that are not yet
// unmapped, parked ones included.
var liveSlabs atomic.Int64

func newHlog(device storage.Device, blob string) *hlog {
	l := &hlog{device: device, blob: blob}
	runtime.SetFinalizer(l, (*hlog).unmapSlabs)
	l.ensureSlab(0)
	return l
}

// unmapSlabs returns the mappings of a log that nothing can reach any more.
// Nothing reads a slab without holding the log: an operation's deferred epoch
// exit keeps its session, and through it the store, reachable until it
// returns, and the store's own goroutines hold it until Close has joined them.
func (l *hlog) unmapSlabs() {
	n := int64(len(l.free))
	for _, b := range l.free {
		unmapSlab(*b)
	}
	for i := range l.slabs {
		if b := l.slabs[i].Load(); b != nil {
			unmapSlab(*b)
			n++
		}
	}
	liveSlabs.Add(-n)
}

func (l *hlog) ensureSlab(idx int64) *[]byte {
	if idx >= maxSlabs {
		panic(fmt.Sprintf("kv: log address space exhausted (slab %d)", idx))
	}
	if s := l.slabs[idx].Load(); s != nil {
		return s
	}
	l.allocMu.Lock()
	defer l.allocMu.Unlock()
	if s := l.slabs[idx].Load(); s != nil {
		return s
	}
	var b *[]byte
	if n := len(l.free); n > 0 {
		b, l.free = l.free[n-1], l.free[:n-1]
	} else {
		nb := mapSlab()
		b = &nb
		liveSlabs.Add(1)
	}
	l.mapped.Add(slabSize)
	l.slabs[idx].Store(b)
	return b
}

// slab returns the in-memory bytes for an address, or nil if evicted.
func (l *hlog) slab(addr int64) []byte {
	s := l.slabs[addr>>slabBits].Load()
	if s == nil {
		return nil
	}
	return *s
}

// allocate claims size bytes (8-aligned) that do not cross a slab boundary
// and returns the record address. Concurrent-safe via CAS on tail.
func (l *hlog) allocate(size int) int64 {
	size = (size + recordAlign - 1) &^ (recordAlign - 1)
	if size > slabSize {
		panic(fmt.Sprintf("kv: record of %d bytes exceeds slab size", size))
	}
	for {
		cur := l.tail.Load()
		next := cur + int64(size)
		if cur>>slabBits == (next-1)>>slabBits {
			if l.tail.CompareAndSwap(cur, next) {
				l.ensureSlab(cur >> slabBits)
				return cur
			}
			continue
		}
		// Record would span slabs: pad to the boundary and retry there.
		boundary := (cur>>slabBits + 1) << slabBits
		if l.tail.CompareAndSwap(cur, boundary) {
			s := *l.ensureSlab(cur >> slabBits)
			// Atomic: parallel recovery scans read this word while sibling
			// shards relink prev pointers elsewhere in the slab.
			word8(s[cur&slabMask:]).Store(padMagic)
		}
	}
}

// recordView provides typed access to a record's header and payload inside a
// slab. Values and valLen mutate only under the owning bucket's lock;
// immutable fields (key, capacities) are written before the record is
// published in the index. The prev and meta words are accessed atomically
// (native byte order) so epoch-protected readers can traverse bucket chains
// and observe in-place meta transitions without the stripe lock, and so the
// parallel recovery rebuild can relink prev pointers while sibling shards
// scan the same slabs.
type recordView struct {
	buf  []byte // slice of the slab starting at the record
	addr int64
}

func (l *hlog) view(addr int64) (recordView, bool) {
	s := l.slab(addr)
	if s == nil {
		return recordView{}, false
	}
	return recordView{buf: s[addr&slabMask:], addr: addr}, true
}

// word8 reinterprets 8 bytes of slab memory as an atomic word. Record
// addresses are 8-aligned within slabs and slab allocations (1 MiB) are
// page-aligned, so &b[0] is always 8-aligned — the cast is safe on every
// supported platform.
func word8(b []byte) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&b[0]))
}

func (r recordView) prev() int64      { return int64(word8(r.buf[0:]).Load()) }
func (r recordView) prevRaw() uint64  { return word8(r.buf[0:]).Load() }
func (r recordView) setPrev(a int64)  { word8(r.buf[0:]).Store(uint64(a)) }
func (r recordView) meta() uint64     { return word8(r.buf[8:]).Load() }
func (r recordView) setMeta(m uint64) { word8(r.buf[8:]).Store(m) }
func (r recordView) keyLen() int      { return int(binary.LittleEndian.Uint32(r.buf[16:])) }
func (r recordView) valCap() int      { return int(binary.LittleEndian.Uint32(r.buf[20:])) }
func (r recordView) valLen() int      { return int(binary.LittleEndian.Uint32(r.buf[24:])) }
func (r recordView) setValLen(n int) {
	binary.LittleEndian.PutUint32(r.buf[24:], uint32(n))
}
func (r recordView) key() []byte { return r.buf[recordHeaderSize : recordHeaderSize+r.keyLen()] }
func (r recordView) value() []byte {
	off := recordHeaderSize + r.keyLen()
	return r.buf[off : off+r.valLen()]
}
func (r recordView) valueCapSlice() []byte {
	off := recordHeaderSize + r.keyLen()
	return r.buf[off : off+r.valCap()]
}
func (r recordView) version() uint64 { return r.meta() & metaVersionMask }
func (r recordView) tombstone() bool { return r.meta()&metaTombstone != 0 }
func (r recordView) invalid() bool   { return r.meta()&metaInvalid != 0 }
func (r recordView) totalSize() int {
	n := recordHeaderSize + r.keyLen() + r.valCap()
	return (n + recordAlign - 1) &^ (recordAlign - 1)
}

// writeRecord materializes a new record at a fresh address and returns its
// view. prev links the bucket chain; version/tombstone set the meta.
func (l *hlog) writeRecord(prev int64, version uint64, tombstone bool, key, val []byte, valCap int) recordView {
	if valCap < len(val) {
		valCap = len(val)
	}
	size := recordHeaderSize + len(key) + valCap
	addr := l.allocate(size)
	s := l.slab(addr)
	buf := s[addr&slabMask:]
	word8(buf[0:]).Store(uint64(prev))
	meta := version & metaVersionMask
	if tombstone {
		meta |= metaTombstone
	}
	word8(buf[8:]).Store(meta)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(valCap))
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(val)))
	copy(buf[recordHeaderSize:], key)
	copy(buf[recordHeaderSize+len(key):], val)
	return recordView{buf: buf, addr: addr}
}

// copyOut copies log bytes [flushedUntil, boundary) out of the slabs into the
// reused staging buffer, one write per slab touched, so the device writes
// never race with in-place updates above the boundary. The caller (the
// checkpoint state machine) issues the writes and calls
// advanceFlushed(boundary) once they are durable; the chunks are valid until
// the next copyOut.
func (l *hlog) copyOut(boundary int64) (from int64, chunks []blobWrite, err error) {
	from = l.flushedUntil.Load()
	buf := l.flushBuf[:0]
	if need := boundary - from; need > int64(cap(buf)) {
		buf = make([]byte, 0, need)
		if need <= maxFlushBuf {
			l.flushBuf = buf
		}
	}
	chunks = l.flushChunks[:0]
	for off := from; off < boundary; {
		end := (off>>slabBits + 1) << slabBits
		if end > boundary {
			end = boundary
		}
		s := l.slab(off)
		if s == nil {
			// Already evicted (can happen only below flushedUntil, which we
			// exclude), so this indicates a bug.
			return from, nil, fmt.Errorf("kv: flush range [%d,%d) evicted", off, end)
		}
		n := len(buf)
		buf = append(buf, s[off&slabMask:(off&slabMask)+(end-off)]...)
		chunks = append(chunks, blobWrite{blob: l.blob, off: off, data: buf[n:len(buf):len(buf)]})
		off = end
	}
	l.flushChunks = chunks
	return from, chunks, nil
}

func (l *hlog) advanceFlushed(boundary int64) {
	for {
		cur := l.flushedUntil.Load()
		if boundary <= cur || l.flushedUntil.CompareAndSwap(cur, boundary) {
			return
		}
	}
}

// advanceHead moves the head boundary up to addr (clamped to flushedUntil)
// and returns the previous head. It does NOT release slab memory: operations
// that observed the old head may still hold views into the region, so the
// store releases slabs with releaseSlabs only after an epoch drain.
func (l *hlog) advanceHead(addr int64) (old int64) {
	if f := l.flushedUntil.Load(); addr > f {
		addr = f
	}
	for {
		cur := l.head.Load()
		if addr <= cur {
			return cur
		}
		if l.head.CompareAndSwap(cur, addr) {
			return cur
		}
	}
}

// releaseSlabs drops the pages of the slabs wholly contained in [from, to)
// and parks them on the free list. Call only after an epoch drain following
// advanceHead(to): nothing may still hold a view into a dropped slab.
func (l *hlog) releaseSlabs(from, to int64) {
	for idx := from >> slabBits; idx < to>>slabBits; idx++ {
		b := l.slabs[idx].Swap(nil)
		if b == nil {
			continue
		}
		dropSlab(*b)
		l.mapped.Add(-slabSize)
		l.allocMu.Lock()
		l.free = append(l.free, b)
		l.allocMu.Unlock()
	}
}

// diskRecord is a record materialized from the device (evicted region).
type diskRecord struct {
	prev      int64
	meta      uint64
	key       []byte
	value     []byte
	totalSize int
}

func (d *diskRecord) version() uint64 { return d.meta & metaVersionMask }
func (d *diskRecord) tombstone() bool { return d.meta&metaTombstone != 0 }
func (d *diskRecord) invalid() bool   { return d.meta&metaInvalid != 0 }

// readDisk fetches the record at addr from the device. It blocks on device
// I/O; callers run it on background threads (PENDING path).
func (l *hlog) readDisk(addr int64) (*diskRecord, error) {
	hdr, err := l.device.Read(l.blob, addr, recordHeaderSize)
	if err != nil {
		return nil, err
	}
	// prev/meta are written native-endian in memory (atomic words) and the
	// flush copies raw bytes, so the on-device layout is native-endian too.
	meta := binary.NativeEndian.Uint64(hdr[8:])
	if binary.NativeEndian.Uint64(hdr[0:]) == padMagic && meta == 0 {
		return nil, fmt.Errorf("kv: address %d is padding", addr)
	}
	keyLen := int(binary.LittleEndian.Uint32(hdr[16:]))
	valCap := int(binary.LittleEndian.Uint32(hdr[20:]))
	valLen := int(binary.LittleEndian.Uint32(hdr[24:]))
	payload, err := l.device.Read(l.blob, addr+recordHeaderSize, keyLen+valCap)
	if err != nil {
		return nil, err
	}
	size := recordHeaderSize + keyLen + valCap
	return &diskRecord{
		prev:      int64(binary.NativeEndian.Uint64(hdr[0:])),
		meta:      meta,
		key:       payload[:keyLen],
		value:     payload[keyLen : keyLen+valLen],
		totalSize: (size + recordAlign - 1) &^ (recordAlign - 1),
	}, nil
}

// scan iterates records in [start, end) in log order, calling fn with each
// record's address and view. Padding is skipped. The range must be resident
// in memory. fn returning false stops the scan.
func (l *hlog) scan(start, end int64, fn func(addr int64, r recordView) bool) error {
	for addr := start; addr < end; {
		s := l.slab(addr)
		if s == nil {
			return fmt.Errorf("kv: scan range at %d evicted", addr)
		}
		buf := s[addr&slabMask:]
		r := recordView{buf: buf, addr: addr}
		// Atomic loads: the parallel recovery rebuild runs one scan per index
		// shard over the same slabs while each shard relinks the prev words
		// of its own records.
		if r.prevRaw() == padMagic && r.meta() == 0 {
			addr = (addr>>slabBits + 1) << slabBits
			continue
		}
		if r.keyLen() == 0 && r.valCap() == 0 && r.meta() == 0 {
			// Unwritten space (end of allocations within the range).
			addr = (addr>>slabBits + 1) << slabBits
			continue
		}
		if !fn(addr, r) {
			return nil
		}
		addr += int64(r.totalSize())
	}
	return nil
}
