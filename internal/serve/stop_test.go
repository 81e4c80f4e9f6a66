package serve_test

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"dpr/internal/baseline"
	"dpr/internal/leakcheck"
	"dpr/internal/redisclone"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// TestStopClosesIdleConnections is the regression test for the Stop hang on
// the bare frame (the plain-Redis baseline); the stores behind the DPR worker
// frame run the same check as a conformance case.
func TestStopClosesIdleConnections(t *testing.T) {
	p, err := baseline.NewPlainServer("127.0.0.1:0", storage.NewNull(), "p", redisclone.AOFOff)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leakcheck.Check(t) })
	t.Cleanup(p.Stop) // Stop is idempotent
	stopClosesIdleConnections(t, p.Addr(), p.Stop)
}

// stopClosesIdleConnections: frame loops park in a read on idle connections,
// so Stop must close every live connection or it never returns.
func stopClosesIdleConnections(t *testing.T, addr string, stop func()) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One round trip (a reply or a refusal, either will do) guarantees
	// the frame loop is live and parked in a read before Stop.
	req := &wire.BatchRequest{Ops: []wire.Op{{Kind: wire.OpRead, Key: []byte("stop-test")}}}
	req.Header.SessionID, req.Header.NumOps = 7, 1
	bw := bufio.NewWriter(conn)
	wire.WriteFrame(bw, wire.FrameBatchRequest, wire.AppendBatchRequest(nil, req))
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := wire.ReadFrame(br); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung with an idle connection open")
	}
	// Pushed cut advances may still sit in the client-side buffer;
	// drain frames until the close surfaces (a timeout means the
	// connection is still open).
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		if _, _, err := wire.ReadFrame(br); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("connection still open after Stop")
			}
			return
		}
	}
}
