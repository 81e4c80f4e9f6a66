package kv

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"dpr/internal/core"
	"dpr/internal/storage"
)

// keysInOneBucket returns n keys that hash into one bucket of s's index:
// all with one tag (so they share one chain), or with n distinct tags (so
// nine of them fill the bucket and the ninth shares a chain by the full-bucket
// rule). Only such keys share a chain of a tagged index, so tests that need
// shared chains choose them.
func keysInOneBucket(t testing.TB, s *Store, n int, sameTag bool) [][]byte {
	t.Helper()
	group := s.index.shardMask<<shardShift | s.index.shards[0].mask
	if sameTag {
		group |= tagMask << tagShift
	}
	groups := map[uint64][][]byte{}
next:
	for i := 0; i < 1<<24; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		h := keyHash(k)
		ks := groups[h&group]
		if !sameTag {
			for _, o := range ks {
				if tagged(keyHash(o)) == tagged(h) {
					continue next
				}
			}
		}
		ks = append(ks, k)
		if len(ks) == n {
			return ks
		}
		groups[h&group] = ks
	}
	t.Fatalf("no %d keys in one bucket", n)
	return nil
}

func u64(n uint64) []byte { return binary.LittleEndian.AppendUint64(nil, n) }

// expect reads every key and compares it with want (absent: not found).
func expect(t *testing.T, sess *Session, keys [][]byte, want map[string]uint64, when string) {
	t.Helper()
	for _, k := range keys {
		val, status, _ := sess.Read(k, 0)
		w, ok := want[string(k)]
		switch {
		case !ok && status != StatusNotFound:
			t.Fatalf("%s: %s = %v %x, want absent", when, k, status, val)
		case ok && (status != StatusOK || binary.LittleEndian.Uint64(val) != w):
			t.Fatalf("%s: %s = %v %x, want %d", when, k, status, val, w)
		}
	}
}

// TestBucketSharing runs keys that share chains — by tag, and by the
// full-bucket rule — through every path that walks a chain: read, RMW,
// delete, compaction's judgeBucket, Restore and its PURGE pass, and Recover's
// rebuild.
func TestBucketSharing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		sameTag bool
	}{{"one-tag", 3, true}, {"full-bucket", 9, false}} {
		t.Run(tc.name, func(t *testing.T) {
			dev := storage.NewNull()
			cfg := Config{BucketCount: 1 << 8}
			s := NewStore(dev, cfg)
			defer s.Close()
			keys := keysInOneBucket(t, s, tc.n, tc.sameTag)
			sess := s.NewSession()
			defer sess.Close()

			gen := func(g int) map[string]uint64 {
				want := map[string]uint64{}
				for i, k := range keys {
					want[string(k)] = uint64(g*1000 + i)
					if _, err := sess.Upsert(k, u64(want[string(k)])); err != nil {
						t.Fatal(err)
					}
				}
				return want
			}
			gen1 := gen(1)
			for _, k := range keys {
				if status, _, got := sess.RMW(k, 1, 0); status != StatusOK || got != gen1[string(k)]+1 {
					t.Fatalf("RMW %s = %v %d, want %d", k, status, got, gen1[string(k)]+1)
				}
				gen1[string(k)]++
			}
			sess.Delete(keys[1])
			delete(gen1, string(keys[1]))
			expect(t, sess, keys, gen1, "written")

			chains, full := s.IndexOccupancy()
			if tc.sameTag {
				if chains != 1 || full != 0 {
					t.Fatalf("occupancy %d chains %d full, want 1 chain", chains, full)
				}
			} else if chains != bucketEntries || full != 1 {
				t.Fatalf("occupancy %d chains %d full, want %d chains 1 full", chains, full, bucketEntries)
			}
			// The last key shares its chain: with the others by tag, or with
			// entry tag mod 8's owner in a full bucket.
			if n := chainKeys(s, keyHash(keys[len(keys)-1])); n < 2 {
				t.Fatalf("the last key's chain holds %d keys, want a shared chain", n)
			}

			v1 := commit(t, s)
			gen2 := gen(2)
			commit(t, s)
			committedAt(s, v1)
			if _, _, err := s.Compact(s.TailAddress()); err != nil {
				t.Fatal(err)
			}
			expect(t, sess, keys, gen2, "compacted at v1")

			if err := s.Restore(v1); err != nil {
				t.Fatal(err)
			}
			expect(t, sess, keys, gen1, "restored to v1")
			commit(t, s) // waits for PURGE
			if n := unpurged(s, keys, v1); n != 0 {
				t.Fatalf("%d records above v1 left unmarked by PURGE", n)
			}

			gen3 := gen(3)
			v3 := commit(t, s)
			committedAt(s, v3)
			if _, _, err := s.Compact(s.TailAddress()); err != nil {
				t.Fatal(err)
			}
			expect(t, sess, keys, gen3, "compacted at v3")
			gen(4) // sealed above v3: Recover(v3) must not see it
			commit(t, s)
			sess.Close()
			s.Close()

			r, err := Recover(dev, cfg, v3)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			rs := r.NewSession()
			defer rs.Close()
			expect(t, rs, keys, gen3, "recovered to v3")
			if got, _ := r.IndexOccupancy(); got != chains {
				t.Fatalf("recovered index has %d chains, want %d", got, chains)
			}
		})
	}
}

// chainKeys returns how many distinct keys the chain h's key lives in holds.
func chainKeys(s *Store, h uint64) int {
	seen := map[string]bool{}
	for addr := s.index.find(h); addr != nilAddress; {
		r, ok := s.log.view(addr)
		if !ok {
			break
		}
		seen[string(r.key())] = true
		addr = r.prev()
	}
	return len(seen)
}

// unpurged counts the resident records of keys' bucket stamped above v that
// are not marked invalid.
func unpurged(s *Store, keys [][]byte, v core.Version) int {
	n := 0
	chains := s.index.bucket(keyHash(keys[0])).chains()
	for i := range chains {
		for addr := chains[i].head(); addr != nilAddress && addr >= s.log.head.Load(); {
			r, _ := s.log.view(addr)
			if core.Version(r.version()) > v && !r.invalid() {
				n++
			}
			addr = r.prev()
		}
	}
	return n
}

// TestLockFreeReadersWhileBucketFills: lock-free readers of keys already in a
// bucket never miss one while a writer claims the bucket's remaining entries
// and then falls back to a shared chain.
func TestLockFreeReadersWhileBucketFills(t *testing.T) {
	const rounds, resident, readers = 200, 3, 2
	cfg := Config{BucketCount: 1 << 8}
	var keys [][]byte
	for round := 0; round < rounds; round++ {
		s := NewStore(storage.NewNull(), cfg)
		if keys == nil {
			keys = keysInOneBucket(t, s, bucketEntries+1, false)
		}
		w := s.NewSession()
		for i, k := range keys[:resident] {
			w.Upsert(k, u64(uint64(i)))
		}
		commit(t, s) // the resident keys are frozen: readers take the lock-free path
		var wg, reading sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < readers; r++ {
			wg.Add(1)
			reading.Add(1)
			go func() {
				defer wg.Done()
				sess := s.NewSession()
				defer sess.Close()
				var arena []byte
				for pass := 0; ; pass++ {
					if pass == 1 {
						reading.Done()
					}
					for i, k := range keys[:resident] {
						arena = arena[:0]
						val, status, _ := sess.ReadAppend(&arena, k, 0)
						if status != StatusOK || binary.LittleEndian.Uint64(val) != uint64(i) {
							t.Errorf("round %d: %s = %v %x while the bucket fills", round, k, status, val)
							if pass == 0 {
								reading.Done()
							}
							return
						}
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		reading.Wait()
		for _, k := range keys[resident:] {
			w.Upsert(k, u64(7))
		}
		close(stop)
		wg.Wait()
		w.Close()
		s.Close()
		if t.Failed() {
			return
		}
	}
}
