package metadata

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"dpr/internal/core"
	"dpr/internal/obs"
	"dpr/internal/serve/listen"
)

// This file exposes the metadata Service over the network (net/rpc with gob
// encoding) so the cmd/ binaries can run a real multi-process deployment:
// one dpr-finder process hosting the Store, N dpr-server worker processes,
// and any number of clients. Recovery works without direct
// manager-to-worker RPC: workers poll State(), notice the advanced
// world-line, roll themselves back, and AckWorldLine; the finder's
// coordinator waits for all acks before resuming DPR progress (§4.1).

// RPC argument/reply types (exported for gob).
type (
	// RegisterArgs registers a worker.
	RegisterArgs struct {
		Worker core.WorkerID
		Addr   string
	}
	// ReportArgs reports a persisted version.
	ReportArgs struct {
		Worker  core.WorkerID
		Version core.Version
		Deps    []core.Token
	}
	// StateReply carries the finder state.
	StateReply struct {
		Cut       core.Cut
		Vmax      core.Version
		WorldLine core.WorldLine
	}
	// OwnerArgs resolves a partition.
	OwnerArgs struct{ Partition uint64 }
	// OwnerReply names the owner.
	OwnerReply struct{ Worker core.WorkerID }
	// SetOwnerArgs assigns a partition.
	SetOwnerArgs struct {
		Partition uint64
		Worker    core.WorkerID
	}
	// MembersReply lists the membership table.
	MembersReply struct{ Members map[core.WorkerID]string }
	// CutArgs names a world-line.
	CutArgs struct{ WorldLine core.WorldLine }
	// CutReply carries a cut tagged with the world-line it belongs to, so
	// the pairing survives the wire even if requests are pipelined.
	CutReply struct {
		Cut       core.Cut
		WorldLine core.WorldLine
	}
	// AckArgs confirms a rollback.
	AckArgs struct {
		Worker    core.WorkerID
		WorldLine core.WorldLine
	}
	// AnnounceArgs announces a closing version, tagged with the world-line it
	// was closed on.
	AnnounceArgs struct {
		Worker    core.WorkerID
		WorldLine core.WorldLine
		Version   core.Version
	}
	// HeartbeatArgs signals liveness.
	HeartbeatArgs struct{ Worker core.WorkerID }
	// MigrateArgs registers an in-flight migration.
	MigrateArgs struct {
		Partitions []uint64
		From       core.WorkerID
		To         core.WorkerID
	}
	// MigrateReply returns the migration id.
	MigrateReply struct{ ID uint64 }
	// MigrateIDArgs names a migration.
	MigrateIDArgs struct{ ID uint64 }
	// AbortReply reports whether AbortMigrate removed the record.
	AbortReply struct{ Removed bool }
	// MigrationsReply lists the in-flight migrations.
	MigrationsReply struct{ Migrations []Migration }
	// WaitStateArgs long-polls for a cut-state change past SinceGen.
	WaitStateArgs struct {
		SinceGen  uint64
		TimeoutMS int64
	}
	// WaitStateReply carries the generation current at wake-up.
	WaitStateReply struct{ Gen uint64 }
	// Empty is the empty reply.
	Empty struct{}
)

// maxWaitStateTimeout caps how long one WaitState RPC may park server-side,
// bounding the lifetime of call goroutines stranded by a dead connection.
const maxWaitStateTimeout = 30 * time.Second

// RPCService adapts a Store to net/rpc.
type RPCService struct {
	store *Store

	hbMu       sync.Mutex
	heartbeats map[core.WorkerID]time.Time

	// ln is the serving side (set by Serve): accept loop, tracked
	// connections, and the Stop that joins them.
	ln *listen.Listener
}

// NewRPCService wraps a store.
func NewRPCService(store *Store) *RPCService {
	return &RPCService{
		store:      store,
		heartbeats: make(map[core.WorkerID]time.Time),
	}
}

// Stop closes the listener and every live connection, then waits for the
// accept loop and all per-connection goroutines to exit. Safe to call more
// than once.
func (s *RPCService) Stop() {
	if s.ln != nil {
		s.ln.Stop()
	}
}

// RegisterWorker is the RPC for Service.RegisterWorker.
func (s *RPCService) RegisterWorker(args *RegisterArgs, _ *Empty) error {
	return s.store.RegisterWorker(args.Worker, args.Addr)
}

// DeregisterWorker is the RPC for Service.DeregisterWorker.
func (s *RPCService) DeregisterWorker(args *RegisterArgs, _ *Empty) error {
	return s.store.DeregisterWorker(args.Worker)
}

// ReportVersion is the RPC for Service.ReportVersion.
func (s *RPCService) ReportVersion(args *ReportArgs, _ *Empty) error {
	return s.store.ReportVersion(args.Worker, args.Version, args.Deps)
}

// State is the RPC for Service.State.
func (s *RPCService) State(_ *Empty, reply *StateReply) error {
	cut, vmax, wl, err := s.store.State()
	if err != nil {
		return err
	}
	reply.Cut, reply.Vmax, reply.WorldLine = cut, vmax, wl
	return nil
}

// WaitState is the RPC for Store.WaitStateChange. net/rpc multiplexes
// concurrent calls on one connection, so a parked WaitState never blocks a
// worker's other RPCs (reports, acks) on the same conn.
func (s *RPCService) WaitState(args *WaitStateArgs, reply *WaitStateReply) error {
	timeout := time.Duration(args.TimeoutMS) * time.Millisecond
	if timeout <= 0 || timeout > maxWaitStateTimeout {
		timeout = maxWaitStateTimeout
	}
	gen, err := s.store.WaitStateChange(args.SinceGen, timeout)
	if err != nil {
		return err
	}
	reply.Gen = gen
	return nil
}

// Members is the RPC for Service.Members.
func (s *RPCService) Members(_ *Empty, reply *MembersReply) error {
	m, err := s.store.Members()
	if err != nil {
		return err
	}
	reply.Members = m
	return nil
}

// OwnerOf is the RPC for Service.OwnerOf.
func (s *RPCService) OwnerOf(args *OwnerArgs, reply *OwnerReply) error {
	w, err := s.store.OwnerOf(args.Partition)
	if err != nil {
		return err
	}
	reply.Worker = w
	return nil
}

// SetOwner is the RPC for Service.SetOwner.
func (s *RPCService) SetOwner(args *SetOwnerArgs, _ *Empty) error {
	return s.store.SetOwner(args.Partition, args.Worker)
}

// RecoveredCut is the RPC for Service.RecoveredCut.
func (s *RPCService) RecoveredCut(args *CutArgs, reply *CutReply) error {
	c, err := s.store.RecoveredCut(args.WorldLine)
	if err != nil {
		return err
	}
	reply.Cut, reply.WorldLine = c, args.WorldLine
	return nil
}

// AckWorldLine is the RPC for Service.AckWorldLine.
func (s *RPCService) AckWorldLine(args *AckArgs, _ *Empty) error {
	return s.store.AckWorldLine(args.Worker, args.WorldLine)
}

// AnnounceCommit is the RPC for Service.AnnounceCommit.
func (s *RPCService) AnnounceCommit(args *AnnounceArgs, _ *Empty) error {
	s.store.AnnounceCommit(args.Worker, args.WorldLine, args.Version)
	return nil
}

// Join is the RPC for ElasticService.Join.
func (s *RPCService) Join(args *RegisterArgs, _ *Empty) error {
	return s.store.Join(args.Worker, args.Addr)
}

// Leave is the RPC for ElasticService.Leave.
func (s *RPCService) Leave(args *RegisterArgs, _ *Empty) error {
	return s.store.Leave(args.Worker)
}

// BeginMigrate is the RPC for ElasticService.BeginMigrate.
func (s *RPCService) BeginMigrate(args *MigrateArgs, reply *MigrateReply) error {
	id, err := s.store.BeginMigrate(args.Partitions, args.From, args.To)
	if err != nil {
		return err
	}
	reply.ID = id
	return nil
}

// CompleteMigrate is the RPC for ElasticService.CompleteMigrate.
func (s *RPCService) CompleteMigrate(args *MigrateIDArgs, _ *Empty) error {
	return s.store.CompleteMigrate(args.ID)
}

// AbortMigrate is the RPC for ElasticService.AbortMigrate.
func (s *RPCService) AbortMigrate(args *MigrateIDArgs, reply *AbortReply) error {
	removed, err := s.store.AbortMigrate(args.ID)
	if err != nil {
		return err
	}
	reply.Removed = removed
	return nil
}

// Migrations is the RPC for ElasticService.Migrations.
func (s *RPCService) Migrations(_ *Empty, reply *MigrationsReply) error {
	migs, err := s.store.Migrations()
	if err != nil {
		return err
	}
	reply.Migrations = migs
	return nil
}

// Heartbeat records a worker liveness signal.
func (s *RPCService) Heartbeat(args *HeartbeatArgs, _ *Empty) error {
	s.hbMu.Lock()
	s.heartbeats[args.Worker] = time.Now()
	s.hbMu.Unlock()
	return nil
}

// Silent returns workers whose last heartbeat is older than timeout.
func (s *RPCService) Silent(timeout time.Duration) []core.WorkerID {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	var out []core.WorkerID
	now := time.Now()
	for w, at := range s.heartbeats {
		if now.Sub(at) > timeout {
			out = append(out, w)
			delete(s.heartbeats, w)
		}
	}
	return out
}

// Serve starts the RPC service on addr, returning the listener (close it —
// or call RPCService.Stop — to stop) and the resolved address. Stop also
// closes every live connection and joins the serving goroutines.
func Serve(store *Store, addr string) (*RPCService, net.Listener, error) {
	svc := NewRPCService(store)
	srv := rpc.NewServer()
	if err := srv.RegisterName("Metadata", svc); err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	svc.ln = listen.On(ln)
	svc.ln.Serve(func(conn net.Conn) { srv.ServeConn(conn) })
	return svc, ln, nil
}

// RPCClient is a Service backed by a remote metadata process.
type RPCClient struct {
	mu sync.Mutex
	c  *rpc.Client
	// addr for reconnects.
	addr string
}

// Dial connects to a remote metadata service.
func Dial(addr string) (*RPCClient, error) {
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &RPCClient{c: c, addr: addr}, nil
}

// Close tears the connection down.
func (c *RPCClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Close()
}

// metaRTT times every metadata RPC round trip; the finder sits off the
// critical path, but a slow metadata database widens the commit latency the
// client observes (the paper's Fig 13 sensitivity), so the RTT is always
// measured.
var metaRTT = obs.Default.Histogram("dpr_meta_rtt_seconds",
	"Round-trip time of metadata RPC calls (reports, state polls, ownership).")

// client returns the connection in use (call replaces it when it redials).
func (c *RPCClient) client() *rpc.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

func (c *RPCClient) call(method string, args, reply any) error {
	start := time.Now()
	defer func() { metaRTT.Observe(time.Since(start)) }()
	cl := c.client()
	err := cl.Call(method, args, reply)
	if err == rpc.ErrShutdown {
		// One reconnect attempt: metadata hiccups must not kill workers.
		nc, derr := rpc.Dial("tcp", c.addr)
		if derr != nil {
			return err
		}
		c.mu.Lock()
		c.c = nc
		c.mu.Unlock()
		return nc.Call(method, args, reply)
	}
	return err
}

// RegisterWorker implements Service.
func (c *RPCClient) RegisterWorker(w core.WorkerID, addr string) error {
	return c.call("Metadata.RegisterWorker", &RegisterArgs{Worker: w, Addr: addr}, &Empty{})
}

// DeregisterWorker implements Service.
func (c *RPCClient) DeregisterWorker(w core.WorkerID) error {
	return c.call("Metadata.DeregisterWorker", &RegisterArgs{Worker: w}, &Empty{})
}

// ReportVersion implements Service.
func (c *RPCClient) ReportVersion(w core.WorkerID, v core.Version, deps []core.Token) error {
	return c.call("Metadata.ReportVersion", &ReportArgs{Worker: w, Version: v, Deps: deps}, &Empty{})
}

// State implements Service.
func (c *RPCClient) State() (core.Cut, core.Version, core.WorldLine, error) {
	var reply StateReply
	if err := c.call("Metadata.State", &Empty{}, &reply); err != nil {
		return nil, 0, 0, err
	}
	return reply.Cut, reply.Vmax, reply.WorldLine, nil
}

// WaitStateChange implements StateWatcher over the wire. Deliberately not
// routed through call(): the round trip is dominated by the server-side park,
// which would drown the metaRTT histogram's real signal.
func (c *RPCClient) WaitStateChange(since uint64, timeout time.Duration) (uint64, error) {
	cl := c.client()
	args := &WaitStateArgs{SinceGen: since, TimeoutMS: int64(timeout / time.Millisecond)}
	var reply WaitStateReply
	err := cl.Call("Metadata.WaitState", args, &reply)
	if err == rpc.ErrShutdown {
		nc, derr := rpc.Dial("tcp", c.addr)
		if derr != nil {
			return since, err
		}
		c.mu.Lock()
		c.c = nc
		c.mu.Unlock()
		err = nc.Call("Metadata.WaitState", args, &reply)
	}
	if err != nil {
		return since, err
	}
	return reply.Gen, nil
}

// Members implements Service.
func (c *RPCClient) Members() (map[core.WorkerID]string, error) {
	var reply MembersReply
	if err := c.call("Metadata.Members", &Empty{}, &reply); err != nil {
		return nil, err
	}
	return reply.Members, nil
}

// OwnerOf implements Service.
func (c *RPCClient) OwnerOf(p uint64) (core.WorkerID, error) {
	var reply OwnerReply
	if err := c.call("Metadata.OwnerOf", &OwnerArgs{Partition: p}, &reply); err != nil {
		return 0, err
	}
	return reply.Worker, nil
}

// SetOwner implements Service.
func (c *RPCClient) SetOwner(p uint64, w core.WorkerID) error {
	return c.call("Metadata.SetOwner", &SetOwnerArgs{Partition: p, Worker: w}, &Empty{})
}

// RecoveredCut implements Service.
func (c *RPCClient) RecoveredCut(wl core.WorldLine) (core.Cut, error) {
	var reply CutReply
	if err := c.call("Metadata.RecoveredCut", &CutArgs{WorldLine: wl}, &reply); err != nil {
		return nil, err
	}
	if reply.WorldLine != wl {
		return nil, fmt.Errorf("metadata: recovered cut tagged world-line %d, want %d", reply.WorldLine, wl)
	}
	return reply.Cut, nil
}

// AckWorldLine implements Service.
func (c *RPCClient) AckWorldLine(w core.WorkerID, wl core.WorldLine) error {
	return c.call("Metadata.AckWorldLine", &AckArgs{Worker: w, WorldLine: wl}, &Empty{})
}

// AnnounceCommit implements Service: the call is sent and not waited for, so
// a commit never takes a metadata round trip longer to start. A connection
// that is down loses the announcement; the next waited-for call redials.
func (c *RPCClient) AnnounceCommit(w core.WorkerID, wl core.WorldLine, v core.Version) {
	cl := c.client()
	cl.Go("Metadata.AnnounceCommit", &AnnounceArgs{Worker: w, WorldLine: wl, Version: v},
		&Empty{}, make(chan *rpc.Call, 1))
}

// Heartbeat signals liveness for worker w.
func (c *RPCClient) Heartbeat(w core.WorkerID) error {
	return c.call("Metadata.Heartbeat", &HeartbeatArgs{Worker: w}, &Empty{})
}

// Join implements ElasticService.
func (c *RPCClient) Join(w core.WorkerID, addr string) error {
	return c.call("Metadata.Join", &RegisterArgs{Worker: w, Addr: addr}, &Empty{})
}

// Leave implements ElasticService.
func (c *RPCClient) Leave(w core.WorkerID) error {
	return c.call("Metadata.Leave", &RegisterArgs{Worker: w}, &Empty{})
}

// BeginMigrate implements ElasticService.
func (c *RPCClient) BeginMigrate(partitions []uint64, from, to core.WorkerID) (uint64, error) {
	var reply MigrateReply
	if err := c.call("Metadata.BeginMigrate",
		&MigrateArgs{Partitions: partitions, From: from, To: to}, &reply); err != nil {
		return 0, err
	}
	return reply.ID, nil
}

// CompleteMigrate implements ElasticService.
func (c *RPCClient) CompleteMigrate(id uint64) error {
	return c.call("Metadata.CompleteMigrate", &MigrateIDArgs{ID: id}, &Empty{})
}

// AbortMigrate implements ElasticService.
func (c *RPCClient) AbortMigrate(id uint64) (bool, error) {
	var reply AbortReply
	if err := c.call("Metadata.AbortMigrate", &MigrateIDArgs{ID: id}, &reply); err != nil {
		return false, err
	}
	return reply.Removed, nil
}

// Migrations implements ElasticService.
func (c *RPCClient) Migrations() ([]Migration, error) {
	var reply MigrationsReply
	if err := c.call("Metadata.Migrations", &Empty{}, &reply); err != nil {
		return nil, err
	}
	return reply.Migrations, nil
}

var _ Service = (*RPCClient)(nil)
var _ ElasticService = (*RPCClient)(nil)
