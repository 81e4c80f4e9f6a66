package kv

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// index is FASTER's hash index: an array of 64-byte buckets, one cache line
// each, of eight tagged entries. An entry heads one chain; a key's records all
// live in the chain of the entry carrying its tag, so a lookup loads one line
// and walks only its own key's records. The bucket space is split into
// independent shards — each with its own buckets and stripe-lock array —
// selected by hash bits disjoint from the bucket and tag bits, so concurrent
// execution lanes contend only within a shard and whole-index passes
// (rollback PURGE, checkpoint scans, recovery rebuild) parallelize
// shard-by-shard.
//
// Placement: a key's chain is the entry of its bucket carrying its tag. When
// its first record is linked and the bucket has no such entry, the first free
// entry is claimed for the tag; in a full bucket the key shares the chain of
// entry tag mod 8. Entries are claimed under the bucket's stripe lock, lowest
// free first, and never freed while the store serves, so a bucket only fills
// up. A lock-free reader therefore applies the writers' rule to whatever it
// loads: the tag's entry, else entry tag mod 8 if all eight are claimed, else
// absent (DESIGN.md "Tagged hash index"). Chain heads and record headers (prev,
// meta) are atomic, so epoch-protected readers may traverse chains lock-free
// and copy values below the frozen boundary without touching a lock
// (FASTER's latch-free reads, kept data-race-free under the Go memory model —
// see session.ReadAppend).
//
// The buckets are mapped memory outside the collector's heap, like the log's
// slabs (slab_mapped.go): page-aligned, so a bucket is exactly a cache line.
type index struct {
	shards    []indexShard
	shardMask uint64
	mem       []byte // every shard's buckets; unmapped when the index is unreachable
}

// indexShard is one independent partition of the hash index.
type indexShard struct {
	buckets  []bucket
	locks    []sync.Mutex
	mask     uint64
	lockMask uint64

	// keep[b] is compaction's memo for bucket b: every record of the bucket's
	// chains at a lower address is droppable (see judgeBucket). Zero knows
	// nothing. Only compaction steps touch it, one at a time under the store's
	// state-machine mutex.
	keep []int64

	// chains counts the claimed entries, full the buckets with all eight
	// claimed (a new tag there shares another tag's chain). Both move only
	// when an entry is claimed, under its stripe lock. They sit on a cache
	// line of their own, so that a claim does not evict the fields above from
	// the processors serving the neighbouring shards.
	_            [64]byte
	chains, full atomic.Int64
	_            [64]byte
}

// bucket is one cache line of entries. Claimed entries are a prefix: the
// first free one ends the bucket.
type bucket [bucketEntries]entry

const bucketEntries = 8

// entry is one chain's head:
//
//	bit 63      claimed
//	bits 48-62  tag
//	bits 0-47   address of the chain's newest record, plus one
//
// A free entry is zero; a claimed entry whose record is not yet linked
// carries address bits zero. Both read as nilAddress.
type entry struct{ w atomic.Uint64 }

const (
	entryClaimed  = 1 << 63
	entryAddrMask = 1<<48 - 1
)

// head returns the chain's newest record, nilAddress for none. The load is
// atomic: lock-free readers use it as their acquire point for the chain's
// record contents.
func (e *entry) head() int64 { return int64(e.w.Load()&entryAddrMask) - 1 }

// link publishes addr as the chain's newest record, keeping the entry's tag.
// Callers hold the stripe lock.
func (e *entry) link(addr int64) {
	e.w.Store(e.w.Load()&^entryAddrMask | uint64(addr+1))
}

const nilAddress = int64(-1)

// A key's hash picks its bucket from the low bits, its shard from bits 40-47
// and its tag from bits 48-62, so the three are independent.
const (
	shardShift     = 40
	maxIndexShards = 1 << 8
	tagShift       = 48
	tagMask        = 1<<15 - 1
)

// maxStripesPerShard caps each shard's stripe-lock array.
const maxStripesPerShard = 1 << 12

// defaultIndexShards sizes the shard count to the machine: one shard per
// core, rounded up to a power of two, capped at 16 (beyond that the stripe
// locks already spread contention; more shards only shrink buckets).
func defaultIndexShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// ceilPow2 rounds n up to a power of two (n >= 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newIndex builds an index of about bucketCount total buckets split across
// shardCount shards (both rounded up to powers of two, shards capped at 256).
// Mapped memory is zero-filled: every entry starts free. It is populated up
// front (slab_mapped.go).
func newIndex(bucketCount, shardCount int) *index {
	if bucketCount <= 0 {
		bucketCount = 1 << 16
	}
	if shardCount <= 0 {
		shardCount = defaultIndexShards()
	}
	shardCount = min(ceilPow2(shardCount), maxIndexShards)
	bucketCount = ceilPow2(bucketCount)
	perShard := max(bucketCount/shardCount, 1)
	nlocks := min(perShard, maxStripesPerShard)
	mem := mapMemory(shardCount*perShard*int(unsafe.Sizeof(bucket{})), true)
	all := unsafe.Slice((*bucket)(unsafe.Pointer(&mem[0])), shardCount*perShard)
	ix := &index{
		shards:    make([]indexShard, shardCount),
		shardMask: uint64(shardCount - 1),
		mem:       mem,
	}
	runtime.SetFinalizer(ix, (*index).unmap)
	for si := range ix.shards {
		sh := &ix.shards[si]
		sh.buckets = all[si*perShard : (si+1)*perShard : (si+1)*perShard]
		sh.locks = make([]sync.Mutex, nlocks)
		sh.mask = uint64(perShard - 1)
		sh.lockMask = uint64(nlocks - 1)
		sh.keep = make([]int64, perShard)
	}
	return ix
}

// unmap returns the buckets' memory once nothing can reach the index. As
// with the log's slabs (hlog.unmapSlabs), nothing touches a bucket without
// holding the store.
func (ix *index) unmap() { unmapMemory(ix.mem) }

// fnv1a computes the 64-bit FNV-1a hash of key.
func fnv1a(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// keyHash is the index's hash of key: FNV-1a, finished with MurmurHash3's
// fmix64 so that its high bits (shard, tag) are as well mixed as its low
// ones (bucket). Keys placed by an FNV-based partition function then still
// spread evenly over one store's buckets and tags.
func keyHash(key []byte) uint64 {
	h := fnv1a(key)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (ix *index) shard(h uint64) *indexShard { return &ix.shards[(h>>shardShift)&ix.shardMask] }

func (ix *index) bucket(h uint64) *bucket {
	sh := ix.shard(h)
	return &sh.buckets[h&sh.mask]
}

// lock returns the stripe lock of h's bucket: one lock covers a bucket's
// eight entries.
func (ix *index) lock(h uint64) *sync.Mutex {
	sh := ix.shard(h)
	return &sh.locks[h&sh.mask&sh.lockMask]
}

// keep returns compaction's memo slot for h's bucket.
func (ix *index) keep(h uint64) *int64 {
	sh := ix.shard(h)
	return &sh.keep[h&sh.mask]
}

// tagged is the claimed, tagged entry word of h with no address.
func tagged(h uint64) uint64 { return entryClaimed | h&(tagMask<<tagShift) }

// find returns the head of the chain h's key lives in, nilAddress when the
// key has none. It takes no lock; see index for why a lock-free reader and
// the writers agree.
func (ix *index) find(h uint64) int64 {
	b := ix.bucket(h)
	want := tagged(h)
	for i := range b {
		w := b[i].w.Load()
		if w&^entryAddrMask == want {
			return int64(w&entryAddrMask) - 1
		}
		if w == 0 {
			return nilAddress
		}
	}
	return b[(h>>tagShift)%bucketEntries].head()
}

// chain returns the entry h's key is linked into, claiming the first free
// entry of the bucket for the key's tag if it has none (the entry then heads
// an empty chain until the caller links a record). The caller holds the
// stripe lock.
func (ix *index) chain(h uint64) *entry {
	sh := ix.shard(h)
	b := &sh.buckets[h&sh.mask]
	want := tagged(h)
	for i := range b {
		w := b[i].w.Load()
		if w&^entryAddrMask == want {
			return &b[i]
		}
		if w == 0 {
			b[i].w.Store(want)
			sh.chains.Add(1)
			if i == bucketEntries-1 {
				sh.full.Add(1)
			}
			return &b[i]
		}
	}
	return &b[(h>>tagShift)%bucketEntries]
}

// chains returns the claimed entries of b, each heading one chain.
func (b *bucket) chains() []entry {
	n := 0
	for n < bucketEntries && b[n].w.Load() != 0 {
		n++
	}
	return b[:n]
}

// handle rebuilds a hash that selects the given shard and bucket, for the
// whole-index passes that iterate buckets (tag bits zero: only the bucket,
// its lock and its memo are meant).
func (ix *index) handle(shard, b int) uint64 {
	return uint64(shard)<<shardShift | uint64(b)
}

// shardOf returns the index of h's shard.
func (ix *index) shardOf(h uint64) int { return int((h >> shardShift) & ix.shardMask) }

// shardCount returns the number of index shards.
func (ix *index) shardCount() int { return len(ix.shards) }

// occupancy sums the claimed entries and the full buckets over all shards.
func (ix *index) occupancy() (chains, full int64) {
	for si := range ix.shards {
		chains += ix.shards[si].chains.Load()
		full += ix.shards[si].full.Load()
	}
	return chains, full
}

// forEachShard runs fn(shard index) for every shard, concurrently when the
// index has more than one shard. fn must confine itself to its shard's
// buckets; the log is append-only shared state. Used by the whole-index
// maintenance passes (PURGE, checkpoint scans, recovery rebuild) so their cost
// divides across cores instead of stalling serving behind one linear walk.
func (ix *index) forEachShard(fn func(shard int)) {
	if len(ix.shards) == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for si := range ix.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			fn(si)
		}(si)
	}
	wg.Wait()
}
