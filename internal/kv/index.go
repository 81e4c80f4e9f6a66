package kv

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// index is the sharded, latch-striped hash index. The bucket space is split
// into independent shards — each with its own bucket array and stripe-lock
// array — selected by disjoint hash bits, so concurrent execution lanes
// contend only within a shard and whole-index passes (rollback PURGE,
// recovery rebuild, migration scans) parallelize shard-by-shard.
//
// Each bucket holds the log address of the newest record in its chain (-1
// when empty). Chain mutations happen under the bucket's stripe lock; chain
// heads and record headers (prev, meta) are atomic, so epoch-protected
// readers may traverse chains lock-free and copy values below the frozen
// boundary without ever touching a lock (FASTER's latch-free reads, kept
// data-race-free under the Go memory model — see session.ReadAppend).
type index struct {
	shards    []indexShard
	shardMask uint64
}

// indexShard is one independent partition of the hash index.
type indexShard struct {
	buckets  []atomic.Int64
	locks    []sync.Mutex
	mask     uint64
	lockMask uint64

	// keep[b] is compaction's memo for bucket b: every record of the bucket
	// at a lower address is droppable (see judgeBucket). Zero knows nothing.
	// Only compaction steps touch it, one at a time under the store's
	// state-machine mutex.
	keep []int64
}

const nilAddress = int64(-1)

// Bucket handles pack (shard, bucket) into one uint64: shard in the top 16
// bits, bucket index in the low 48.
const handleBucketMask = (1 << 48) - 1

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
// shardCount shards (both rounded up to powers of two).
func newIndex(bucketCount, shardCount int) *index {
	if bucketCount <= 0 {
		bucketCount = 1 << 16
	}
	if shardCount <= 0 {
		shardCount = defaultIndexShards()
	}
	shardCount = ceilPow2(shardCount)
	bucketCount = ceilPow2(bucketCount)
	perShard := bucketCount / shardCount
	if perShard < 1 {
		perShard = 1
	}
	nlocks := perShard
	if nlocks > maxStripesPerShard {
		nlocks = maxStripesPerShard
	}
	ix := &index{
		shards:    make([]indexShard, shardCount),
		shardMask: uint64(shardCount - 1),
	}
	for si := range ix.shards {
		sh := &ix.shards[si]
		sh.buckets = make([]atomic.Int64, perShard)
		sh.locks = make([]sync.Mutex, nlocks)
		sh.mask = uint64(perShard - 1)
		sh.lockMask = uint64(nlocks - 1)
		sh.keep = make([]int64, perShard)
		for i := range sh.buckets {
			sh.buckets[i].Store(nilAddress)
		}
	}
	return ix
}

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

// bucketFor maps a key to its bucket handle. The shard comes from high hash
// bits and the bucket from low bits, so the two choices are independent.
func (ix *index) bucketFor(key []byte) uint64 {
	h := fnv1a(key)
	shard := (h >> 40) & ix.shardMask
	b := h & ix.shards[shard].mask
	return shard<<48 | b
}

func (ix *index) shard(handle uint64) *indexShard { return &ix.shards[handle>>48] }

func (ix *index) lock(handle uint64) *sync.Mutex {
	sh := ix.shard(handle)
	return &sh.locks[(handle&handleBucketMask)&sh.lockMask]
}

// head returns the chain head address for a bucket. The load is atomic:
// lock-free readers use it as their acquire point for the chain's record
// contents; mutators additionally hold the stripe lock for a consistent
// read-modify-write of the chain.
func (ix *index) head(handle uint64) int64 {
	return ix.shard(handle).buckets[handle&handleBucketMask].Load()
}

// setHead publishes a new chain head. Callers must hold the stripe lock.
func (ix *index) setHead(handle uint64, addr int64) {
	ix.shard(handle).buckets[handle&handleBucketMask].Store(addr)
}

// keep returns compaction's memo slot for a bucket.
func (ix *index) keep(handle uint64) *int64 {
	return &ix.shard(handle).keep[handle&handleBucketMask]
}

// shardCount returns the number of index shards.
func (ix *index) shardCount() int { return len(ix.shards) }

// handle rebuilds a bucket handle from explicit shard/bucket indexes
// (whole-index passes iterate this way).
func (ix *index) handle(shard, bucket int) uint64 {
	return uint64(shard)<<48 | uint64(bucket)
}

// forEachShard runs fn(shard index) for every shard, concurrently when the
// index has more than one shard. fn must confine itself to its shard's
// buckets; the log is append-only shared state. Used by the whole-index
// maintenance passes (PURGE, migration scans, recovery rebuild) so their cost
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
