package serve_test

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/dredis"
	"dpr/internal/kv"
	"dpr/internal/leakcheck"
	"dpr/internal/libdpr"
	"dpr/internal/libdpr/statetest"
	"dpr/internal/metadata"
	"dpr/internal/serve"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// backend is one store behind the DPR worker frame, as the conformance suite
// sees it: the frame it sits behind, how to stop it, and the two things only
// some stores can do.
type backend struct {
	*serve.Worker
	stop func()
	// refuse makes the store's apply step refuse batches until the returned
	// undo runs. Nil for a store that never refuses (D-Redis).
	refuse func() (undo func())
	// bumpKey, when set, is a key whose operation moves the store to its next
	// version in the middle of a batch. Real stores change version only on a
	// commit, which a test cannot place between two operations of one batch.
	bumpKey string
}

const conformancePartitions = 8

func TestConformance(t *testing.T) {
	t.Run("kv", func(t *testing.T) {
		runConformance(t, func(t *testing.T, meta metadata.Service) backend {
			w, err := dfaster.NewWorker(dfaster.WorkerConfig{
				ID: 1, ListenAddr: "127.0.0.1:0", CheckpointInterval: 10 * time.Millisecond,
				Partitions: conformancePartitions, Device: storage.NewNull(), KV: kv.Config{BucketCount: 64},
			}, meta)
			if err != nil {
				t.Fatal(err)
			}
			all := make([]uint64, conformancePartitions)
			for p := range all {
				all[p] = uint64(p)
			}
			if err := w.ClaimPartitions(all...); err != nil {
				t.Fatal(err)
			}
			return backend{Worker: w.Worker, stop: w.Stop, refuse: func() func() {
				for _, p := range all {
					w.Renounce(p)
				}
				return func() {
					if err := w.ClaimPartitions(all...); err != nil {
						t.Error(err)
					}
				}
			}}
		})
	})
	t.Run("redisclone", func(t *testing.T) {
		runConformance(t, func(t *testing.T, meta metadata.Service) backend {
			w, err := dredis.NewWorker(dredis.WorkerConfig{
				ID: 1, ListenAddr: "127.0.0.1:0", CheckpointInterval: 10 * time.Millisecond,
				Device: storage.NewNull(),
			}, meta)
			if err != nil {
				t.Fatal(err)
			}
			return backend{Worker: w.Worker, stop: w.Stop}
		})
	})
	t.Run("fake", func(t *testing.T) {
		runConformance(t, func(t *testing.T, meta metadata.Service) backend {
			s := &fakeStore{data: make(map[string][]byte), current: 1}
			w, err := serve.NewWorker("fake", libdpr.WorkerConfig{
				ID: 1, Addr: "127.0.0.1:0", CheckpointInterval: 10 * time.Millisecond,
			}, s, meta)
			if err != nil {
				t.Fatal(err)
			}
			w.Start(func() serve.Conn { return serve.Conn{Apply: s} })
			return backend{Worker: w, stop: w.Stop, bumpKey: "bump", refuse: func() func() {
				s.refusing.Store(true)
				return func() { s.refusing.Store(false) }
			}}
		})
	})
}

// TestStateObjectContract holds fakeStore to the store's side of libdpr's
// commit contract.
func TestStateObjectContract(t *testing.T) {
	statetest.Run(t, &fakeStore{data: make(map[string][]byte), current: 1})
}

// fakeStore is the least a store behind the frame has to be: a map, a version
// counter that a commit moves on, and an apply step.
type fakeStore struct {
	refusing atomic.Bool

	mu                 sync.Mutex
	data               map[string][]byte
	current, persisted core.Version
	onPersist          func(core.Version, time.Duration)
}

func (s *fakeStore) locked(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
}
func (s *fakeStore) CurrentVersion() (v core.Version)   { s.locked(func() { v = s.current }); return }
func (s *fakeStore) PersistedVersion() (v core.Version) { s.locked(func() { v = s.persisted }); return }
func (s *fakeStore) OnPersist(fn func(core.Version, time.Duration)) {
	s.locked(func() { s.onPersist = fn })
}
func (s *fakeStore) Restore(core.Version) error { s.locked(func() { s.current++ }); return nil }

// BeginCommit seals at once, under mu: a seal is under way for as long as the
// call holds it, and BeginCommitIdle waits it out.
func (s *fakeStore) BeginCommit(v core.Version) error {
	s.locked(func() { s.seal(v) })
	return nil
}
func (s *fakeStore) BeginCommitIdle(v, persisted core.Version) (started bool, err error) {
	s.locked(func() {
		if started = s.persisted == persisted; started {
			s.seal(v)
		}
	})
	return started, nil
}
func (s *fakeStore) seal(v core.Version) {
	if start := time.Now(); v >= s.current {
		s.current, s.persisted = v+1, v
		s.onPersist(v, time.Since(start))
	}
}

func (s *fakeStore) Apply(req *wire.BatchRequest, results []wire.OpResult, _ *[]byte) *wire.ErrorReply {
	if s.refusing.Load() {
		return &wire.ErrorReply{Code: wire.ErrCodeBadOwner, Message: "refusing"}
	}
	s.locked(func() {
		for i, op := range req.Ops {
			if string(op.Key) == "bump" {
				s.current++
			}
			results[i] = wire.OpResult{Status: wire.StatusOK, Version: s.current}
			if op.Kind == wire.OpUpsert {
				s.data[string(op.Key)] = append([]byte(nil), op.Value...)
			} else if results[i].Value = s.data[string(op.Key)]; results[i].Value == nil {
				results[i].Status = wire.StatusNotFound
			}
		}
	})
	return nil
}

// reportLog is a metadata service that remembers which dependencies each
// version was reported with.
type reportLog struct {
	*metadata.Store
	mu   sync.Mutex
	deps map[core.Version][]core.Token
}

func (r *reportLog) ReportVersion(w core.WorkerID, v core.Version, deps []core.Token) error {
	r.mu.Lock()
	r.deps[v] = append(r.deps[v], deps...)
	r.mu.Unlock()
	return r.Store.ReportVersion(w, v, deps)
}

func (r *reportLog) reported(v core.Version, dep core.Token) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.deps[v] {
		if d == dep {
			return true
		}
	}
	return false
}

// peer is a raw wire-protocol session: it sends the headers it is told to.
type peer struct {
	t    *testing.T
	conn net.Conn
	fr   *wire.FrameReader
	bw   *bufio.Writer
	hdr  libdpr.BatchHeader // SessionID and WorldLine of the next batch
}

func dialBackend(t *testing.T, b backend) *peer {
	t.Helper()
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := &peer{t: t, conn: conn, fr: wire.NewFrameReader(bufio.NewReader(conn)), bw: bufio.NewWriter(conn)}
	p.hdr.SessionID, p.hdr.WorldLine = 7, b.DPR().WorldLine()
	t.Cleanup(func() {
		conn.Close()
		p.fr.Close()
	})
	return p
}

// batch sends ops as sequence numbers seq.. and returns the reply or the
// error frame, skipping pushed cut advances.
func (p *peer) batch(seq uint64, ops ...wire.Op) (*wire.BatchReply, *wire.ErrorReply) {
	p.t.Helper()
	req := &wire.BatchRequest{Header: p.hdr, Ops: ops}
	req.Header.SeqStart, req.Header.NumOps = seq, uint32(len(ops))
	if err := wire.WriteFrame(p.bw, wire.FrameBatchRequest, wire.AppendBatchRequest(nil, req)); err != nil {
		p.t.Fatal(err)
	}
	if err := p.bw.Flush(); err != nil {
		p.t.Fatal(err)
	}
	p.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		tag, payload, err := p.fr.Read()
		if err != nil {
			p.t.Fatalf("read frame: %v", err)
		}
		switch tag {
		case wire.FrameCutAdvance:
		case wire.FrameBatchReply:
			reply := new(wire.BatchReply)
			if err := wire.DecodeBatchReplyInto(reply, payload); err != nil {
				p.t.Fatal(err)
			}
			return reply, nil
		case wire.FrameError:
			er, err := wire.DecodeError(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			return nil, er
		default:
			p.t.Fatalf("unexpected frame tag %d", tag)
		}
	}
}

// ok is batch for a batch that must execute.
func (p *peer) ok(seq uint64, ops ...wire.Op) *wire.BatchReply {
	p.t.Helper()
	reply, er := p.batch(seq, ops...)
	if er != nil {
		p.t.Fatalf("batch at seq %d refused: code %d, %s", seq, er.Code, er.Message)
	}
	if len(reply.Results) != len(ops) {
		p.t.Fatalf("%d results for %d operations", len(reply.Results), len(ops))
	}
	return reply
}

// refused is batch for a batch that must be answered with the given code.
func (p *peer) refused(code byte, seq uint64, ops ...wire.Op) *wire.ErrorReply {
	p.t.Helper()
	reply, er := p.batch(seq, ops...)
	if reply != nil || er.Code != code {
		p.t.Fatalf("batch at seq %d: reply %v, error %+v; want error code %d", seq, reply, er, code)
	}
	return er
}

func put(k, v string) wire.Op { return wire.Op{Kind: wire.OpUpsert, Key: []byte(k), Value: []byte(v)} }
func get(k string) wire.Op    { return wire.Op{Kind: wire.OpRead, Key: []byte(k)} }

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// runConformance checks what the frame promises of every store behind it,
// whatever the store: each case builds a fresh backend on a fresh finder.
func runConformance(t *testing.T, newBackend func(*testing.T, metadata.Service) backend) {
	start := func(t *testing.T) (backend, *reportLog, *peer) {
		t.Cleanup(func() { leakcheck.Check(t) }) // registered first: runs after the connection and the backend are down
		meta := &reportLog{
			Store: metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate}),
			deps:  make(map[core.Version][]core.Token),
		}
		b := newBackend(t, meta)
		t.Cleanup(b.stop) // Stop is idempotent
		return b, meta, dialBackend(t, b)
	}

	t.Run("executes and stamps every result", func(t *testing.T) {
		_, _, p := start(t)
		reply := p.ok(1, put("a", "1"), get("a"), get("missing"))
		if r := reply.Results[1]; r.Status != wire.StatusOK || string(r.Value) != "1" {
			t.Fatalf("read back %+v", r)
		}
		if reply.Results[2].Status != wire.StatusNotFound {
			t.Fatalf("missing key: %+v", reply.Results[2])
		}
		for i, r := range reply.Results {
			if r.Version == 0 {
				t.Fatalf("result %d carries no version", i)
			}
		}
	})

	t.Run("below-fence batch is stale", func(t *testing.T) {
		_, _, p := start(t)
		p.ok(1, put("a", "1"), put("b", "2"))
		p.refused(wire.ErrCodeStale, 1, put("a", "late"))
		p.refused(wire.ErrCodeStale, 2, put("b", "late"))
		if r := p.ok(3, get("a")).Results[0]; string(r.Value) != "1" {
			t.Fatalf("stale batch executed: a = %q", r.Value)
		}
	})

	t.Run("old world-line is rejected with the worker's", func(t *testing.T) {
		b, meta, p := start(t)
		p.ok(1, put("a", "1"))
		next, _ := meta.BeginRecovery()
		eventually(t, "the worker rolls back", func() bool { return b.DPR().WorldLine() == next })
		if er := p.refused(wire.ErrCodeRejected, 2, put("a", "2")); er.WorldLine != next {
			t.Fatalf("rejection carries world-line %d, worker is on %d", er.WorldLine, next)
		}
		p.hdr.WorldLine = next
		p.ok(0, put("a", "2")) // the session's sequence space restarts with the world-line
	})

	t.Run("refused batch leaves the fence", func(t *testing.T) {
		b, _, p := start(t)
		if b.refuse == nil {
			t.Skip("this store never refuses a batch")
		}
		p.ok(1, put("a", "1"))
		undo := b.refuse()
		er := p.refused(wire.ErrCodeBadOwner, 2, put("a", "2"), put("b", "2"))
		if er.WorldLine != p.hdr.WorldLine {
			t.Fatalf("refusal carries world-line %d, want %d", er.WorldLine, p.hdr.WorldLine)
		}
		undo()
		// The same sequence numbers again: not stale, and nothing of the
		// refused attempt is there to be seen.
		p.ok(2, get("a"), put("b", "2"))
		p.refused(wire.ErrCodeStale, 2, put("a", "late"))
		if reply := p.ok(4, get("a"), get("b")); string(reply.Results[0].Value) != "1" || string(reply.Results[1].Value) != "2" {
			t.Fatalf("after refusal and retransmit: a = %q, b = %q", reply.Results[0].Value, reply.Results[1].Value)
		}
	})

	t.Run("dependency is recorded under every version of the batch", func(t *testing.T) {
		b, meta, p := start(t)
		if b.bumpKey == "" {
			t.Skip("this store cannot change version inside a batch")
		}
		p.hdr.Dep = core.Token{Worker: 9, Version: 3}
		reply := p.ok(1, put("a", "1"), put(b.bumpKey, ""), put("c", "3"))
		first, second := reply.Results[0].Version, reply.Results[2].Version
		if first == second {
			t.Fatalf("batch did not span versions: %d", first)
		}
		eventually(t, "both versions reported with the dependency", func() bool {
			return meta.reported(first, p.hdr.Dep) && meta.reported(second, p.hdr.Dep)
		})
	})

	t.Run("cut rides only on its own world-line", func(t *testing.T) {
		b, meta, p := start(t)
		seq := uint64(1)
		eventually(t, "a reply carrying the worker's commit", func() bool {
			seq++
			return p.ok(seq, put("a", "1")).Cut.Get(b.ID()) > 0
		})
		// A recovery round begins. The worker's replies move to the new
		// world-line together with its cut, the recovered one: the old
		// world-line's cut may name versions the rollback erased.
		next, recovered := meta.BeginRecovery()
		eventually(t, "the worker rolls back", func() bool { return b.DPR().WorldLine() == next })
		p.hdr.WorldLine = next
		for seq := uint64(0); seq < 20; seq++ {
			reply := p.ok(seq, put("a", "2"))
			if reply.WorldLine != next || !reply.Cut.Equal(recovered) {
				t.Fatalf("reply on world-line %d carries cut %v, want the recovered %v", reply.WorldLine, reply.Cut, recovered)
			}
			time.Sleep(time.Millisecond) // let commits and cut refreshes happen in between
		}
	})

	t.Run("Stop closes idle connections", func(t *testing.T) {
		b, _, _ := start(t)
		stopClosesIdleConnections(t, b.Addr(), b.stop)
	})
}
