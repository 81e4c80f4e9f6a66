package kv

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/storage"
	"dpr/internal/workload"
)

// committedAt tells the store its DPR-committed version is v: compaction may
// drop what a newer record at a version <= v shadows, and nothing else.
func committedAt(s *Store, v core.Version) {
	s.CommittedBy(func() core.Version { return v })
}

// commit seals everything up to the current version and returns that version.
func commit(t *testing.T, s *Store) core.Version {
	t.Helper()
	v := s.CurrentVersion()
	if err := s.BeginCommit(v); err != nil {
		t.Fatal(err)
	}
	waitPersisted(t, s, v)
	return v
}

func TestCompactReclaimsDeadPrefix(t *testing.T) {
	dev := storage.NewNull()
	s := NewStore(dev, Config{BucketCount: 1 << 8})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	// Churn: overwrite a small key set in many versions so most of the log is
	// dead versions.
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			sess.Upsert([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("r%02d-%02d", round, i)))
		}
		if round%5 == 4 {
			commit(t, s)
		}
	}
	sess.Delete([]byte("k00"))
	// Freeze the prefix with a checkpoint; everything in it is committed.
	committedAt(s, commit(t, s))
	sizeBefore := s.LogSize()

	copied, reclaimed, err := s.Compact(s.TailAddress())
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed == 0 {
		t.Fatal("nothing reclaimed")
	}
	// Only ~19 live records (k00 deleted) should be copied forward.
	if copied < 15 || copied > 25 {
		t.Fatalf("copied %d records, expected ~19", copied)
	}
	if s.LogSize() >= sizeBefore {
		t.Fatalf("log did not shrink: %d -> %d", sizeBefore, s.LogSize())
	}
	if s.BeginAddress() == 0 {
		t.Fatal("begin address did not advance")
	}
	// Every live key still resolves to its newest value.
	for i := 1; i < 20; i++ {
		got := mustRead(t, sess, fmt.Sprintf("k%02d", i))
		if string(got) != fmt.Sprintf("r49-%02d", i) {
			t.Fatalf("k%02d = %q after compaction", i, got)
		}
	}
	// The deleted key stays deleted (its tombstone was dropped, not its
	// older values resurrected).
	if _, status, _ := sess.Read([]byte("k00"), 0); status != StatusNotFound {
		t.Fatalf("deleted key resurrected by compaction: %v", status)
	}
}

func TestCompactThenCheckpointAndRecover(t *testing.T) {
	dev := storage.NewNull()
	s := NewStore(dev, Config{BucketCount: 1 << 8})
	sess := s.NewSession()
	for round := 0; round < 20; round++ {
		for i := 0; i < 10; i++ {
			sess.Upsert([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("r%d", round)))
		}
		commit(t, s)
	}
	committedAt(s, s.PersistedVersion())
	if _, _, err := s.Compact(s.TailAddress()); err != nil {
		t.Fatal(err)
	}
	// New writes, another checkpoint: its metadata records the new begin.
	sess.Upsert([]byte("post"), []byte("compaction"))
	target := commit(t, s)
	sess.Close()
	s.Close()

	r, err := Recover(dev, Config{BucketCount: 1 << 8}, target)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.NewSession()
	defer rs.Close()
	for i := 0; i < 10; i++ {
		got := mustRead(t, rs, fmt.Sprintf("k%d", i))
		if string(got) != "r19" {
			t.Fatalf("k%d = %q after recover-from-compacted-log", i, got)
		}
	}
	if got := mustRead(t, rs, "post"); string(got) != "compaction" {
		t.Fatalf("post = %q", got)
	}
	if r.BeginAddress() == 0 {
		t.Fatal("recovered store lost the begin address")
	}
}

func TestCompactConcurrentTraffic(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{BucketCount: 1 << 8})
	defer s.Close()
	s.CommittedBy(s.PersistedVersion) // nothing in this test rolls back
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := s.NewSession()
			defer sess.Close()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("g%d-%d", g, i%16))
				if i%4 == 0 {
					sess.Read(k, 0)
				} else {
					sess.Upsert(k, []byte(fmt.Sprintf("%d", i)))
				}
				i++
			}
		}(g)
	}
	for round := 0; round < 3; round++ {
		time.Sleep(10 * time.Millisecond)
		commit(t, s)
		if _, _, err := s.Compact(s.TailAddress()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if s.BeginAddress() == 0 {
		t.Fatal("nothing compacted under traffic")
	}
	// Post-compaction, every key resolves to a recent value.
	sess := s.NewSession()
	defer sess.Close()
	for g := 0; g < 4; g++ {
		for i := 0; i < 16; i++ {
			if _, status, _ := sess.Read([]byte(fmt.Sprintf("g%d-%d", g, i)), 0); status == StatusError {
				t.Fatalf("g%d-%d unreadable after concurrent compaction", g, i)
			}
		}
	}
}

func TestCompactRespectsRolledBackVersions(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{BucketCount: 64})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v1"))
	s.BeginCommit(1)
	waitPersisted(t, s, 1)
	sess.Upsert([]byte("k"), []byte("doomed"))
	if err := s.Restore(1); err != nil {
		t.Fatal(err)
	}
	committedAt(s, commit(t, s))
	if _, _, err := s.Compact(s.TailAddress()); err != nil {
		t.Fatal(err)
	}
	if s.BeginAddress() == 0 {
		t.Fatal("nothing compacted")
	}
	// The live version is v1; the rolled-back one must not be copied.
	if got := mustRead(t, sess, "k"); string(got) != "v1" {
		t.Fatalf("got %q after compaction over rolled-back version", got)
	}
}

func TestCompactNoopOnEmptyRange(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v"))
	committedAt(s, commit(t, s))
	for _, upTo := range []int64{0, s.BeginAddress()} {
		copied, reclaimed, err := s.Compact(upTo)
		if err != nil || copied != 0 || reclaimed != 0 || s.BeginAddress() != 0 {
			t.Fatalf("Compact(%d): %d %d %v, begin %d", upTo, copied, reclaimed, err, s.BeginAddress())
		}
	}
}

// Without a committed version nothing is known to be safe from a rollback, so
// nothing is reclaimed, however dead the log looks.
func TestCompactNeedsCommittedVersion(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{BucketCount: 64})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	for round := 0; round < 10; round++ {
		sess.Upsert([]byte("k"), []byte(fmt.Sprintf("r%d", round)))
		commit(t, s)
	}
	if copied, reclaimed, err := s.Compact(s.TailAddress()); err != nil || copied != 0 || reclaimed != 0 || s.BeginAddress() != 0 {
		t.Fatalf("compacted without a committed version: %d %d %v, begin %d", copied, reclaimed, err, s.BeginAddress())
	}
}

// The regression the old "newest record wins" rule had: a rollback below the
// newest record of a key found nothing once compaction had run.
func TestCompactThenRestoreBelowNewest(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{BucketCount: 64})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v1"))
	sess.Upsert([]byte("other"), []byte("o1"))
	v1 := commit(t, s)
	sess.Upsert([]byte("k"), []byte("v2"))
	commit(t, s)
	committedAt(s, v1) // the cut has passed v1 only: Restore(v1) is still possible
	if _, _, err := s.Compact(s.TailAddress()); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, sess, "k"); string(got) != "v2" {
		t.Fatalf("k = %q after compaction", got)
	}
	if err := s.Restore(v1); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, sess, "k"); string(got) != "v1" {
		t.Fatalf("k = %q after compact + Restore(%d), want v1", got, v1)
	}
	if got := mustRead(t, sess, "other"); string(got) != "o1" {
		t.Fatalf("other = %q after compact + Restore(%d)", got, v1)
	}
}

// The same through the restart path: Recover to a version below the newest
// checkpoint must still find the value that version held.
func TestCompactThenRecoverBelowNewest(t *testing.T) {
	dev := storage.NewNull()
	cfg := Config{BucketCount: 64}
	s := NewStore(dev, cfg)
	sess := s.NewSession()
	sess.Upsert([]byte("cold"), []byte("c1"))
	sess.Upsert([]byte("k"), []byte("v1"))
	v1 := commit(t, s)
	sess.Upsert([]byte("k"), []byte("v2"))
	commit(t, s)
	committedAt(s, v1)
	if _, _, err := s.Compact(s.TailAddress()); err != nil {
		t.Fatal(err)
	}
	if s.BeginAddress() == 0 {
		t.Fatal("nothing compacted: cold@v1 is committed and head-most")
	}
	// One more seal so the newest record carries what compaction did.
	sess.Upsert([]byte("k"), []byte("v3"))
	commit(t, s)
	sess.Close()
	s.Close()

	r, err := Recover(dev, cfg, v1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.NewSession()
	defer rs.Close()
	if got := mustRead(t, rs, "k"); string(got) != "v1" {
		t.Fatalf("k = %q after compact + Recover(%d), want v1", got, v1)
	}
	if got := mustRead(t, rs, "cold"); string(got) != "c1" {
		t.Fatalf("cold = %q after compact + Recover(%d)", got, v1)
	}
}

// A tombstone above the committed version shadows nothing yet: the value
// below it is what a rollback returns to.
func TestCompactKeepsValueUnderUncommittedTombstone(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{BucketCount: 64})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("k"), []byte("v1"))
	v1 := commit(t, s)
	sess.Delete([]byte("k"))
	commit(t, s)
	committedAt(s, v1)
	if _, _, err := s.Compact(s.TailAddress()); err != nil {
		t.Fatal(err)
	}
	if _, status, _ := sess.Read([]byte("k"), 0); status != StatusNotFound {
		t.Fatalf("deleted key reads %v after compaction", status)
	}
	if err := s.Restore(v1); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, sess, "k"); string(got) != "v1" {
		t.Fatalf("k = %q after compact + Restore(%d), want v1", got, v1)
	}
}

// A kept record is moved only when it is its key's head-most visible record;
// otherwise the pass stops there until the cut has passed the newer one.
func TestCompactStopsAtPinnedRecordAndResumes(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{BucketCount: 64})
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	sess.Upsert([]byte("a"), []byte("a1"))
	sess.Upsert([]byte("k"), []byte("v1"))
	v1 := commit(t, s)
	sess.Upsert([]byte("k"), []byte("v2"))
	v2 := commit(t, s)

	committedAt(s, v1)
	copied, _, err := s.Compact(s.TailAddress())
	if err != nil {
		t.Fatal(err)
	}
	// "a" is head-most and committed: moved. k@v1 is pinned by k@v2.
	if copied != 1 {
		t.Fatalf("copied %d records with the cut at %d, want 1", copied, v1)
	}
	pinnedAt := s.BeginAddress()
	if pinnedAt == 0 || pinnedAt >= s.log.readOnly.Load() {
		t.Fatalf("begin %d: the pass should stop at k@v1, short of %d", pinnedAt, s.log.readOnly.Load())
	}

	committedAt(s, v2)
	if _, _, err := s.Compact(s.TailAddress()); err != nil {
		t.Fatal(err)
	}
	// All of the frozen prefix now, and nothing beyond it: the copies at the
	// tail are not sealed yet.
	if ro := s.log.readOnly.Load(); s.BeginAddress() != ro || ro >= s.TailAddress() {
		t.Fatalf("begin %d after the cut passed %d; read-only boundary %d, tail %d", s.BeginAddress(), v2, ro, s.TailAddress())
	}
	for k, want := range map[string]string{"a": "a1", "k": "v2"} {
		if got := mustRead(t, sess, k); string(got) != want {
			t.Fatalf("%s = %q, want %q", k, got, want)
		}
	}
}

// churn fills the log with dead versions: rounds of upserts over a fixed key
// set with values of the given size, a seal after each round.
func churn(t *testing.T, s *Store, sess *Session, bytes int64, keys, valSize int) {
	t.Helper()
	val := make([]byte, valSize)
	for start := s.TailAddress(); s.TailAddress()-start < bytes; {
		for i := 0; i < keys; i++ {
			sess.Upsert([]byte(fmt.Sprintf("k%04d", i)), val)
		}
		commit(t, s)
	}
}

// The store compacts on its own once the resident log outgrows the trigger;
// nobody calls Compact and there is nothing to configure.
func TestAutoCompaction(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{BucketCount: 64})
	defer s.Close()
	s.CommittedBy(s.PersistedVersion)
	sess := s.NewSession()
	defer sess.Close()
	churn(t, s, sess, 3*compactFloor, 64, 4<<10)
	// The compactor works between seals; give the last cycle a moment.
	deadline := time.Now().Add(5 * time.Second)
	for s.BeginAddress() == 0 || s.LogSize() > 2*compactFloor {
		if time.Now().After(deadline) {
			t.Fatalf("log not bounded by the store's own compactor: begin %d, size %d (floor %d)",
				s.BeginAddress(), s.LogSize(), int64(compactFloor))
		}
		commit(t, s)
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		if got := mustRead(t, sess, fmt.Sprintf("k%04d", i)); len(got) != 4<<10 {
			t.Fatalf("k%04d: %d bytes", i, len(got))
		}
	}
}

// sealTime is the median time from BeginCommit to persisted on an otherwise
// idle store.
func sealTime(t *testing.T, s *Store, sess *Session) time.Duration {
	t.Helper()
	var d []time.Duration
	for i := 0; i < 9; i++ {
		sess.Upsert([]byte("seal-probe"), []byte("x"))
		d = append(d, timedCommit(t, s))
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// timedCommit seals the current version and returns how long it took,
// spinning rather than sleeping so the measurement resolves microseconds.
func timedCommit(t *testing.T, s *Store) time.Duration {
	t.Helper()
	v := s.CurrentVersion()
	start := time.Now()
	if err := s.BeginCommit(v); err != nil {
		t.Fatal(err)
	}
	for s.PersistedVersion() < v {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("checkpoint %d did not persist", v)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return time.Since(start)
}

// A compaction pass in progress gives way: a commit issued in the middle of
// it seals in about the time an idle store's does, while the pass is still
// unfinished, and a rollback does not wait for the pass either.
func TestCompactionYieldsToCommitAndRestore(t *testing.T) {
	s := NewStore(storage.NewNull(), Config{BucketCount: 64})
	defer s.Close()
	s.CommittedBy(s.PersistedVersion)
	sess := s.NewSession()
	defer sess.Close()
	idle := sealTime(t, s, sess)
	var longestStep atomic.Int64
	s.OnCompactStep(func(st CompactStep) {
		if int64(st.Held) > longestStep.Load() {
			longestStep.Store(int64(st.Held)) // steps are sequential
		}
	})

	// The bound is 2x the idle seal, with a floor for what a loaded scheduler
	// adds to any hand-off — plus one step, because on a single processor the
	// commit cannot even ask before the running step is over; that is what
	// bounds a step. An upper bound on a timing, so it may retry.
	var sealed, restored, bound time.Duration
	for try := 0; try < 3; try++ {
		// A dead prefix that takes a pass far longer than a seal to get
		// through. It stays below the self-paced trigger, so the only pass is
		// the one started here.
		churn(t, s, sess, compactFloor/2, 1024, 16)
		upTo := s.log.readOnly.Load()
		from := s.BeginAddress()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Compact(upTo)
		}()
		for s.BeginAddress() == from { // the pass is under way
			time.Sleep(10 * time.Microsecond)
		}
		sess.Upsert([]byte("mid"), []byte("compaction"))
		sealed = timedCommit(t, s)
		if s.BeginAddress() >= upTo {
			t.Fatalf("the pass finished before a commit issued in the middle of it sealed (%v)", sealed)
		}
		start := time.Now()
		if err := s.Restore(s.PersistedVersion()); err != nil {
			t.Fatal(err)
		}
		restored = time.Since(start)
		if s.BeginAddress() >= upTo {
			t.Fatalf("the pass finished before a rollback issued in the middle of it returned (%v)", restored)
		}
		<-done
		if s.BeginAddress() < upTo {
			t.Fatalf("the pass did not finish after yielding: begin %d of %d", s.BeginAddress(), upTo)
		}
		bound = max(2*idle, 2*time.Millisecond) + time.Duration(longestStep.Load())
		if sealed <= bound && restored <= bound {
			return
		}
	}
	t.Fatalf("mid-compaction commit sealed in %v and rollback returned in %v; idle seal %v, bound %v",
		sealed, restored, idle, bound)
}

// Under sustained skewed upserts with a commit loop at the pump's rate the
// log stops growing: its size stays within the trigger, and so does every
// bucket chain's resident length.
func TestCompactionBoundsLogUnderLoad(t *testing.T) {
	dur := 30 * time.Second
	if testing.Short() {
		dur = 3 * time.Second
	}
	const valSize = 1 << 10
	s := NewStore(storage.NewSink("null", storage.NullProfile), Config{BucketCount: 1 << 10})
	defer s.Close()
	// The cut trails the persisted version by a couple of seals, as a
	// two-worker cluster's does.
	s.CommittedBy(func() core.Version { return max(s.PersistedVersion(), 2) - 2 })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := s.NewSession()
		defer sess.Close()
		gen := workload.NewGenerator(workload.Config{Keys: 1 << 12, Dist: workload.Zipfian, Seed: 21})
		val := make([]byte, valSize)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			k := gen.NextKey()
			sess.Upsert(k[:], val)
			if n%128 == 127 {
				time.Sleep(time.Millisecond) // ~60 MB/s of log: many times the bound, even in 3 s
			}
		}
	}()

	var peak int64
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		commit(t, s)
		peak = max(peak, s.LogSize())
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	written := s.TailAddress()
	limit := 2 * s.compactTrigger()
	t.Logf("wrote %d MiB, peak log %d MiB, trigger %d MiB", written>>20, peak>>20, s.compactTrigger()>>20)
	if written < 2*limit {
		t.Skipf("only %d bytes written: too slow a host to say anything about a %d byte bound", written, limit)
	}
	if peak > limit {
		t.Fatalf("log peaked at %d bytes, over twice the trigger of %d", peak, s.compactTrigger())
	}
	// No chain can hold more records than the bounded log has room for. The
	// compactor may still be finishing a cycle, so walk like an operation
	// does: inside an epoch, down to the head seen from inside it.
	const recSize = recordHeaderSize + 8 + valSize
	longest := 0
	slot := s.epochs.Register()
	defer s.epochs.Unregister(slot)
	for si := range s.index.shards {
		for b := range s.index.shards[si].buckets {
			slot.Enter()
			head := s.log.head.Load()
			chains := s.index.shards[si].buckets[b].chains()
			for i := range chains {
				n := 0
				for addr := chains[i].head(); addr != nilAddress && addr >= head; n++ {
					r, ok := s.log.view(addr)
					if !ok {
						t.Fatalf("chain %d of bucket %d/%d reaches a released slab at %d (head %d)", i, si, b, addr, head)
					}
					addr = r.prev()
				}
				longest = max(longest, n)
			}
			slot.Exit()
		}
	}
	if int64(longest)*recSize > limit {
		t.Fatalf("a bucket chain holds %d resident records, more than a %d byte log has room for", longest, limit)
	}
}
