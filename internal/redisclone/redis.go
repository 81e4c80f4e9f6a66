// Package redisclone implements a deliberately Redis-like single-threaded
// in-memory key-value cache with snapshot persistence. It plays the role of
// the *unmodified* cache-store of paper §6: it knows nothing about DPR,
// versions, or world-lines — it only offers the primitives a stock Redis
// offers (GET/SET/DEL/INCR, BGSAVE, LASTSAVE, restart-from-snapshot, and an
// optional append-only file for synchronous durability). The D-Redis wrapper
// (package dredis) layers libDPR on top of exactly this surface.
package redisclone

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dpr/internal/storage"
)

// AOFMode selects append-only-file behaviour (Redis's appendfsync).
type AOFMode uint8

const (
	// AOFOff disables the AOF (snapshot-only persistence, the default).
	AOFOff AOFMode = iota
	// AOFAlways fsyncs every write before acknowledging it — Redis's
	// synchronous recoverability setting used as the "Sync" baseline in
	// the paper's Figure 19.
	AOFAlways
	// AOFEverySec batches AOF writes in the background (eventual
	// recoverability: the op returns before persistence).
	AOFEverySec
)

// Config parameterizes a Server.
type Config struct {
	// Device receives snapshots (and the AOF if enabled).
	Device storage.Device
	// Prefix namespaces this instance's blobs on the device.
	Prefix string
	// AOF selects append-only-file durability.
	AOF AOFMode
}

type cmdKind uint8

const (
	cmdGet cmdKind = iota
	cmdSet
	cmdDel
	cmdIncr
	cmdBgSave
	cmdSnapshotForClose
)

type command struct {
	kind  cmdKind
	key   string
	value []byte
	by    int64
	// reply receives the result.
	reply chan reply
	// saveID labels a BGSAVE.
	saveID uint64
}

type reply struct {
	value []byte
	n     int64
	found bool
	err   error
}

// Server is one redisclone instance. All commands execute on a single
// event-loop goroutine, preserving Redis's single-threaded execution and
// the atomicity of individual commands.
type Server struct {
	cfg  Config
	cmds chan command

	lastSave   atomic.Uint64 // id of the newest durable snapshot
	failedSave atomic.Uint64 // id of the newest snapshot whose write failed
	saveSeq    atomic.Uint64
	aofLen     atomic.Int64
	wg         sync.WaitGroup
	stopOnce   sync.Once
	stop       chan struct{}
}

// New starts a fresh empty server.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, cmds: make(chan command, 256), stop: make(chan struct{})}
	s.wg.Add(1)
	go s.loop(make(map[string][]byte))
	return s
}

// Restart builds a server from snapshot saveID on the device — Redis's
// restart-based restore, which is exactly how D-Redis implements
// StateObject.Restore (§6: "Restore() is implemented by restarting the
// Redis instance in question").
func Restart(cfg Config, saveID uint64) (*Server, error) {
	data, err := loadSnapshot(cfg.Device, cfg.Prefix, saveID)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, cmds: make(chan command, 256), stop: make(chan struct{})}
	s.lastSave.Store(saveID)
	s.saveSeq.Store(saveID)
	s.wg.Add(1)
	go s.loop(data)
	return s, nil
}

func (s *Server) loop(data map[string][]byte) {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case c := <-s.cmds:
			s.execute(data, c)
		}
	}
}

func (s *Server) execute(data map[string][]byte, c command) {
	switch c.kind {
	case cmdGet:
		v, ok := data[c.key]
		if ok {
			v = append([]byte(nil), v...)
		}
		c.reply <- reply{value: v, found: ok}
	case cmdSet:
		data[c.key] = append([]byte(nil), c.value...)
		err := s.appendAOF('S', c.key, c.value)
		c.reply <- reply{err: err}
	case cmdDel:
		_, ok := data[c.key]
		delete(data, c.key)
		err := s.appendAOF('D', c.key, nil)
		c.reply <- reply{found: ok, err: err}
	case cmdIncr:
		var n int64
		if v, ok := data[c.key]; ok && len(v) == 8 {
			n = int64(binary.LittleEndian.Uint64(v))
		}
		n += c.by
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		data[c.key] = buf[:]
		err := s.appendAOF('S', c.key, buf[:])
		c.reply <- reply{n: n, err: err}
	case cmdBgSave:
		// Like Redis's fork-based BGSAVE: capture a consistent copy now
		// (we copy instead of forking) and persist it in the background.
		snap := make(map[string][]byte, len(data))
		for k, v := range data {
			snap[k] = v // values are never mutated in place; aliasing is safe
		}
		id := c.saveID
		s.persistSnapshot(snap, id)
		c.reply <- reply{n: int64(id)}
	case cmdSnapshotForClose:
		c.reply <- reply{}
	}
}

// appendAOF logs a write to the append-only file per the configured mode.
func (s *Server) appendAOF(op byte, key string, value []byte) error {
	if s.cfg.AOF == AOFOff {
		return nil
	}
	var buf bytes.Buffer
	buf.WriteByte(op)
	var l [8]byte
	binary.LittleEndian.PutUint32(l[:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(l[4:], uint32(len(value)))
	buf.Write(l[:])
	buf.WriteString(key)
	buf.Write(value)
	off := s.aofLen.Load()
	s.aofLen.Add(int64(buf.Len()))
	if s.cfg.AOF == AOFAlways {
		ch := make(chan error, 1)
		s.cfg.Device.WriteAsync(s.cfg.Prefix+"-aof", off, buf.Bytes(), func(err error) { ch <- err })
		return <-ch // synchronous durability: block the event loop like fsync
	}
	s.cfg.Device.WriteAsync(s.cfg.Prefix+"-aof", off, buf.Bytes(), func(error) {})
	return nil
}

// ---- public command API (thread-safe; commands serialize on the loop) ----

var errStopped = errors.New("redisclone: server stopped")

func (s *Server) do(c command) reply {
	c.reply = make(chan reply, 1)
	select {
	case s.cmds <- c:
	case <-s.stop:
		return reply{err: errStopped}
	}
	select {
	case r := <-c.reply:
		return r
	case <-s.stop:
		return reply{err: errStopped}
	}
}

// Get returns the value for key.
func (s *Server) Get(key string) ([]byte, bool, error) {
	r := s.do(command{kind: cmdGet, key: key})
	return r.value, r.found, r.err
}

// Set stores key=value.
func (s *Server) Set(key string, value []byte) error {
	return s.do(command{kind: cmdSet, key: key, value: value}).err
}

// Del removes key, reporting whether it existed.
func (s *Server) Del(key string) (bool, error) {
	r := s.do(command{kind: cmdDel, key: key})
	return r.found, r.err
}

// Incr adds by to the integer at key (0 if absent) and returns the result.
func (s *Server) Incr(key string, by int64) (int64, error) {
	r := s.do(command{kind: cmdIncr, key: key, by: by})
	return r.n, r.err
}

// BgSave starts a background snapshot and returns its save id immediately
// (like Redis BGSAVE). Use LastSave to learn when it is durable.
func (s *Server) BgSave() (uint64, error) {
	id := s.saveSeq.Add(1)
	r := s.do(command{kind: cmdBgSave, saveID: id})
	if r.err != nil {
		return 0, r.err
	}
	return id, nil
}

// LastSave returns the id of the newest durable snapshot (like LASTSAVE).
func (s *Server) LastSave() uint64 { return s.lastSave.Load() }

// LastFailedSave returns the id of the newest snapshot whose write failed
// (INFO's rdb_last_bgsave_status:err), 0 if none has.
func (s *Server) LastFailedSave() uint64 { return s.failedSave.Load() }

// Stop halts the event loop. The server cannot be restarted; build a new
// one with Restart to simulate a process restart.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// ---- snapshot encoding ----

func snapBlob(prefix string, id uint64) string { return fmt.Sprintf("%s-snap-%d", prefix, id) }

func (s *Server) persistSnapshot(snap map[string][]byte, id uint64) {
	var buf bytes.Buffer
	var l [8]byte
	binary.LittleEndian.PutUint64(l[:], uint64(len(snap)))
	buf.Write(l[:])
	for k, v := range snap {
		binary.LittleEndian.PutUint32(l[:4], uint32(len(k)))
		binary.LittleEndian.PutUint32(l[4:], uint32(len(v)))
		buf.Write(l[:])
		buf.WriteString(k)
		buf.Write(v)
	}
	s.cfg.Device.WriteAsync(snapBlob(s.cfg.Prefix, id), 0, buf.Bytes(), func(err error) {
		to := &s.lastSave
		if err != nil {
			to = &s.failedSave
		}
		// Publish monotonically: a slow older save must not regress it.
		for cur := to.Load(); id > cur && !to.CompareAndSwap(cur, id); cur = to.Load() {
		}
	})
}

func loadSnapshot(dev storage.Device, prefix string, id uint64) (map[string][]byte, error) {
	if id == 0 {
		return make(map[string][]byte), nil
	}
	blob := snapBlob(prefix, id)
	size := dev.BlobSize(blob)
	if size < 8 {
		return nil, fmt.Errorf("redisclone: snapshot %d missing", id)
	}
	raw, err := dev.Read(blob, 0, int(size))
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(raw)
	data := make(map[string][]byte, n)
	off := 8
	for i := uint64(0); i < n; i++ {
		if off+8 > len(raw) {
			return nil, errors.New("redisclone: truncated snapshot")
		}
		kl := int(binary.LittleEndian.Uint32(raw[off:]))
		vl := int(binary.LittleEndian.Uint32(raw[off+4:]))
		off += 8
		if off+kl+vl > len(raw) {
			return nil, errors.New("redisclone: truncated snapshot")
		}
		k := string(raw[off : off+kl])
		v := append([]byte(nil), raw[off+kl:off+kl+vl]...)
		data[k] = v
		off += kl + vl
	}
	return data, nil
}
