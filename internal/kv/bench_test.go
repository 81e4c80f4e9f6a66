package kv

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dpr/internal/storage"
)

func benchStore(b *testing.B) (*Store, *Session) {
	b.Helper()
	s := NewStore(storage.NewSink("bench", storage.NullProfile), Config{BucketCount: 1 << 16})
	b.Cleanup(s.Close)
	sess := s.NewSession()
	b.Cleanup(sess.Close)
	return s, sess
}

func BenchmarkUpsert(b *testing.B) {
	_, sess := benchStore(b)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	val := []byte("value-xx")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Upsert(keys[i&1023], val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpsertInPlace(b *testing.B) {
	_, sess := benchStore(b)
	key := []byte("hot-key")
	val := []byte("value-xx")
	sess.Upsert(key, val)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Upsert(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	_, sess := benchStore(b)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		sess.Upsert(keys[i], []byte("value-xx"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, status, _ := sess.Read(keys[i&1023], 0); status != StatusOK {
			b.Fatal(status)
		}
	}
}

// Loaded benchmarks run at the end-to-end benchmark's load: 131 072 uniform
// 8-byte keys in a store of 1<<16 buckets, sealed once, so that reads take
// the lock-free path and upserts copy (read-copy-update) as they do behind a
// commit. Keys are drawn from a fixed random sequence.
const (
	loadedKeys    = 1 << 17
	loadedBuckets = 1 << 16
)

func loadedStore(b *testing.B) (*Store, *Session, [][]byte, []int32) {
	b.Helper()
	s := NewStore(storage.NewSink("bench", storage.NullProfile), Config{BucketCount: loadedBuckets})
	b.Cleanup(s.Close)
	sess := s.NewSession()
	b.Cleanup(sess.Close)
	keys := make([][]byte, loadedKeys)
	for i := range keys {
		keys[i] = binary.LittleEndian.AppendUint64(nil, uint64(i))
		if _, err := sess.Upsert(keys[i], []byte("value-xx")); err != nil {
			b.Fatal(err)
		}
	}
	v := s.CurrentVersion()
	if err := s.BeginCommit(v); err != nil {
		b.Fatal(err)
	}
	for s.PersistedVersion() < v {
		time.Sleep(time.Millisecond)
	}
	rng := rand.New(rand.NewSource(1))
	order := make([]int32, 1<<20)
	for i := range order {
		order[i] = int32(rng.Intn(loadedKeys))
	}
	return s, sess, keys, order
}

// recordsPerLookup is the mean number of records a lookup of each key visits
// before it reaches the key's newest record: the chain walk's length, counted
// outside the timer so that product code carries no counter.
func recordsPerLookup(s *Store, keys [][]byte) float64 {
	total := 0
	for _, key := range keys {
		for addr := s.index.find(keyHash(key)); addr != nilAddress; {
			r, ok := s.log.view(addr)
			if !ok {
				break
			}
			total++
			if string(r.key()) == string(key) {
				break
			}
			addr = r.prev()
		}
	}
	return float64(total) / float64(len(keys))
}

func BenchmarkReadLoaded(b *testing.B) {
	s, sess, keys, order := loadedStore(b)
	var arena []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena = arena[:0]
		if _, status, _ := sess.ReadAppend(&arena, keys[order[i&(len(order)-1)]], 0); status != StatusOK {
			b.Fatal(status)
		}
	}
	b.StopTimer()
	b.ReportMetric(recordsPerLookup(s, keys), "records/op")
}

func BenchmarkUpsertLoaded(b *testing.B) {
	s, sess, keys, order := loadedStore(b)
	val := []byte("value-yy")
	walk := recordsPerLookup(s, keys) // of the loaded store: the runs below lengthen chains
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Upsert(keys[order[i&(len(order)-1)]], val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(walk, "records/op")
}

func BenchmarkRMW(b *testing.B) {
	_, sess := benchStore(b)
	key := []byte("counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status, _, _ := sess.RMW(key, 1, 0); status != StatusOK {
			b.Fatal(status)
		}
	}
}

func BenchmarkUpsertParallel(b *testing.B) {
	s := NewStore(storage.NewSink("bench", storage.NullProfile), Config{BucketCount: 1 << 16})
	b.Cleanup(s.Close)
	val := []byte("value-xx")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		sess := s.NewSession()
		defer sess.Close()
		i := 0
		key := make([]byte, 8)
		for pb.Next() {
			for j := 0; j < 8; j++ {
				key[j] = byte(i >> (j * 4))
			}
			if _, err := sess.Upsert(key, val); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkUpsertDuringCheckpoints measures the sustained-write cost while
// the CPR state machine cycles continuously — the paper's core claim is that
// this stays near the no-checkpoint cost.
func BenchmarkUpsertDuringCheckpoints(b *testing.B) {
	s := NewStore(storage.NewSink("bench", storage.LocalSSDProfile), Config{BucketCount: 1 << 16})
	b.Cleanup(s.Close)
	sess := s.NewSession()
	b.Cleanup(sess.Close)
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.BeginCommit(s.CurrentVersion())
			}
		}
	}()
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	val := []byte("value-xx")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Upsert(keys[i&1023], val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
}

func BenchmarkCheckpoint(b *testing.B) {
	s := NewStore(storage.NewSink("bench", storage.NullProfile), Config{BucketCount: 1 << 12})
	b.Cleanup(s.Close)
	sess := s.NewSession()
	b.Cleanup(sess.Close)
	for i := 0; i < 10000; i++ {
		sess.Upsert([]byte(fmt.Sprintf("key-%05d", i)), []byte("value-xx"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := s.CurrentVersion()
		if err := s.BeginCommit(target); err != nil {
			b.Fatal(err)
		}
		for s.PersistedVersion() < target {
			time.Sleep(10 * time.Microsecond)
		}
		// A little churn so the next checkpoint has work.
		sess.Upsert([]byte("churn"), []byte("value-xx"))
	}
}
