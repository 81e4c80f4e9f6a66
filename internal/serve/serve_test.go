package serve

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dpr/internal/core"
	"dpr/internal/wire"
)

// fakeBackend executes batches without a store: every op succeeds and echoes
// its key as the value, except that a batch whose first key is "refuse" is
// answered with an error reply. opened counts connections whose frame loop
// has started.
type fakeBackend struct {
	opened   atomic.Int64
	takeover func(tag byte, payload []byte, fr *wire.FrameReader, bw *bufio.Writer)
}

func (f *fakeBackend) open() Handler {
	f.opened.Add(1)
	var results []wire.OpResult
	var reply wire.BatchReply
	return Handler{
		Execute: func(req *wire.BatchRequest) (*wire.BatchReply, *wire.ErrorReply) {
			if len(req.Ops) > 0 && string(req.Ops[0].Key) == "refuse" {
				return nil, &wire.ErrorReply{Code: wire.ErrCodeBadOwner, WorldLine: 3, Message: "refused"}
			}
			results = results[:0]
			for _, op := range req.Ops {
				results = append(results, wire.OpResult{Status: wire.StatusOK, Version: 1, Value: op.Key})
			}
			reply = wire.BatchReply{WorldLine: 1, Results: results}
			return &reply, nil
		},
		Takeover: f.takeover,
	}
}

func startServer(t *testing.T, f *fakeBackend) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Start(f.open)
	t.Cleanup(s.Stop)
	return s
}

// client is a raw wire-protocol peer.
type client struct {
	t    *testing.T
	conn net.Conn
	fr   *wire.FrameReader
	bw   *bufio.Writer
}

func dial(t *testing.T, s *Server) *client {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := &client{t: t, conn: conn, fr: wire.NewFrameReader(bufio.NewReader(conn)), bw: bufio.NewWriter(conn)}
	t.Cleanup(func() {
		conn.Close()
		c.fr.Close()
	})
	return c
}

func (c *client) send(tag byte, payload []byte) {
	c.t.Helper()
	if err := wire.WriteFrame(c.bw, tag, payload); err != nil {
		c.t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *client) sendBatch(keys ...string) {
	c.t.Helper()
	req := &wire.BatchRequest{}
	for _, k := range keys {
		req.Ops = append(req.Ops, wire.Op{Kind: wire.OpRead, Key: []byte(k)})
	}
	req.Header.NumOps = uint32(len(keys))
	c.send(wire.FrameBatchRequest, wire.AppendBatchRequest(nil, req))
}

// read returns the next frame, failing the test if none arrives in time.
func (c *client) read() (byte, []byte) {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	tag, payload, err := c.fr.Read()
	if err != nil {
		c.t.Fatalf("read frame: %v", err)
	}
	return tag, payload
}

// quiet asserts that no frame arrives within d.
func (c *client) quiet(d time.Duration) {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(d))
	if tag, _, err := c.fr.Read(); err == nil {
		c.t.Fatalf("unexpected frame with tag %d", tag)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *Server) subscribers() []*conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cs []*conn
	for c := range s.subs {
		cs = append(cs, c)
	}
	return cs
}

func TestReplyAndErrorFrames(t *testing.T) {
	s := startServer(t, &fakeBackend{})
	c := dial(t, s)

	c.sendBatch("a", "b")
	tag, payload := c.read()
	if tag != wire.FrameBatchReply {
		t.Fatalf("tag %d, want batch reply", tag)
	}
	reply := new(wire.BatchReply)
	if err := wire.DecodeBatchReplyInto(reply, payload); err != nil {
		t.Fatal(err)
	}
	if len(reply.Results) != 2 || string(reply.Results[0].Value) != "a" || string(reply.Results[1].Value) != "b" {
		t.Fatalf("bad reply %+v", reply.Results)
	}

	// A refused batch is answered with an error frame and the connection
	// keeps serving.
	c.sendBatch("refuse")
	tag, payload = c.read()
	if tag != wire.FrameError {
		t.Fatalf("tag %d, want error", tag)
	}
	er, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != wire.ErrCodeBadOwner || er.WorldLine != 3 || er.Message != "refused" {
		t.Fatalf("bad error reply %+v", er)
	}
	c.sendBatch("c")
	if tag, _ = c.read(); tag != wire.FrameBatchReply {
		t.Fatalf("tag %d after an error reply, want batch reply", tag)
	}
}

// TestLazySubscribe: only a connection that has sent a batch request is a
// session; one that has not must never see an interleaved push.
func TestLazySubscribe(t *testing.T) {
	f := &fakeBackend{}
	s := startServer(t, f)
	session, silent := dial(t, s), dial(t, s)
	session.sendBatch("k")
	session.read()
	waitFor(t, "both frame loops", func() bool { return f.opened.Load() == 2 })

	s.PushCutAdvance(7, wire.AppendCut(nil, core.Cut{1: 5}))
	tag, payload := session.read()
	if tag != wire.FrameCutAdvance {
		t.Fatalf("tag %d, want cut advance", tag)
	}
	adv := new(wire.CutAdvance)
	if err := wire.DecodeCutAdvanceInto(adv, payload); err != nil || adv.WorldLine != 7 || adv.Cut.Get(1) != 5 {
		t.Fatalf("bad cut advance %+v: %v", adv, err)
	}
	silent.quiet(100 * time.Millisecond)
}

// TestTakeoverDetachesFromInFlightFanOut: once a connection is taken over,
// its writer belongs to the takeover alone — even a fan-out that snapshotted
// the subscriber set before the takeover must not write to it.
func TestTakeoverDetachesFromInFlightFanOut(t *testing.T) {
	const tagStream, tagAck = 200, 201
	entered, release := make(chan struct{}), make(chan struct{})
	f := &fakeBackend{takeover: func(tag byte, payload []byte, fr *wire.FrameReader, bw *bufio.Writer) {
		if tag != tagStream || string(payload) != "begin" {
			t.Errorf("takeover got tag %d payload %q", tag, payload)
		}
		close(entered)
		<-release
		wire.WriteFrame(bw, tagAck, []byte("ack"))
		bw.Flush()
	}}
	s := startServer(t, f)
	c := dial(t, s)
	c.sendBatch("k")
	c.read()

	inFlight := s.subscribers() // what a fan-out racing the takeover holds
	if len(inFlight) != 1 {
		t.Fatalf("%d subscribers, want 1", len(inFlight))
	}
	c.send(tagStream, []byte("begin"))
	<-entered
	if len(s.subscribers()) != 0 {
		t.Fatal("taken-over connection still subscribed")
	}
	if err := inFlight[0].push([]byte{0}); err != nil {
		t.Fatal(err)
	}
	s.PushCutAdvance(1, []byte{0})
	close(release)

	tag, payload := c.read()
	if tag != tagAck || string(payload) != "ack" {
		t.Fatalf("first frame after takeover: tag %d %q, want the takeover's ack", tag, payload)
	}
	// The connection ends when the takeover returns.
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := c.fr.Read(); err == nil {
		t.Fatal("connection still open after the takeover returned")
	}
}

// TestUnknownFrameWithoutTakeoverCloses: a backend with no takeover drops a
// connection that sends anything but batch requests.
func TestUnknownFrameWithoutTakeoverCloses(t *testing.T) {
	s := startServer(t, &fakeBackend{})
	c := dial(t, s)
	c.send(200, []byte("x"))
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := c.fr.Read(); err == nil {
		t.Fatal("connection survived an unknown frame")
	}
}

// TestPushBoundedByStalledSubscriber: a subscriber that stops reading must
// cost the fan-out — which runs on libDPR's maintenance goroutine — at most
// one write timeout, once; it is then severed and every other subscriber keeps
// receiving.
func TestPushBoundedByStalledSubscriber(t *testing.T) {
	s := startServer(t, &fakeBackend{})
	stalled, healthy := dial(t, s), dial(t, s)
	for _, c := range []*client{stalled, healthy} {
		c.sendBatch("k")
		c.read()
	}
	var received atomic.Int64
	go func() {
		for {
			tag, _, err := healthy.fr.Read()
			if err != nil {
				return
			}
			if tag == wire.FrameCutAdvance {
				received.Add(1)
			}
		}
	}()

	// 1 MiB pushes fill the stalled peer's socket buffers within a few rounds.
	cut := make([]byte, 1<<20)
	pushes := 0
	push := func() time.Duration {
		start := time.Now()
		done := make(chan struct{})
		go func() {
			s.PushCutAdvance(1, cut)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(writeTimeout + 4*time.Second):
			t.Fatal("fan-out blocked on the stalled subscriber")
		}
		pushes++
		return time.Since(start)
	}
	for len(s.subscribers()) == 2 {
		if pushes > 256 {
			t.Fatal("stalled subscriber never filled up")
		}
		push()
	}
	// Severed and dropped: fan-outs are fast again.
	for i := 0; i < 4; i++ {
		if d := push(); d > writeTimeout/2 {
			t.Fatalf("fan-out took %v after the stalled subscriber was dropped", d)
		}
	}
	waitFor(t, "healthy subscriber to receive every push", func() bool {
		return received.Load() == int64(pushes)
	})
}

// TestServeBatchZeroAlloc: one batch through the frame loop — read, decode,
// execute, encode, write, over loopback TCP with the client side included —
// allocates nothing in steady state.
func TestServeBatchZeroAlloc(t *testing.T) {
	s := startServer(t, &fakeBackend{})
	c := dial(t, s)
	req := &wire.BatchRequest{}
	for i := 0; i < 32; i++ {
		req.Ops = append(req.Ops, wire.Op{Kind: wire.OpRead, Key: []byte("alloc-key")})
	}
	req.Header.NumOps = 32
	frame := wire.AppendBatchRequest(nil, req)
	c.conn.SetDeadline(time.Now().Add(30 * time.Second))
	roundTrip := func() {
		wire.WriteFrame(c.bw, wire.FrameBatchRequest, frame)
		c.bw.Flush()
		if tag, _, err := c.fr.Read(); err != nil || tag != wire.FrameBatchReply {
			t.Fatalf("tag %d: %v", tag, err)
		}
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Fatalf("served batch allocates %.2f allocs/op, want 0", n)
	}
}
