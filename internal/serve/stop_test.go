package serve_test

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"dpr/internal/baseline"
	"dpr/internal/dfaster"
	"dpr/internal/dredis"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/redisclone"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// TestStopClosesIdleConnections is the regression test for the Stop hang,
// over every server built on the frame: frame loops park in a read on idle
// connections, so Stop must close every live connection or it never returns.
func TestStopClosesIdleConnections(t *testing.T) {
	meta := metadata.NewStore(metadata.Config{Finder: metadata.FinderApproximate})
	servers := []struct {
		name  string
		start func() (addr string, stop func(), err error)
	}{
		{"dfaster", func() (string, func(), error) {
			w, err := dfaster.NewWorker(dfaster.WorkerConfig{
				ID: 1, ListenAddr: "127.0.0.1:0", CheckpointInterval: 10 * time.Millisecond,
				Partitions: 8, Device: storage.NewNull(), KV: kv.Config{BucketCount: 64},
			}, meta)
			if err != nil {
				return "", nil, err
			}
			return w.Addr(), w.Stop, nil
		}},
		{"dredis", func() (string, func(), error) {
			w, err := dredis.NewWorker(dredis.WorkerConfig{
				ID: 2, ListenAddr: "127.0.0.1:0", CheckpointInterval: 10 * time.Millisecond,
				Device: storage.NewNull(),
			}, meta)
			if err != nil {
				return "", nil, err
			}
			return w.Addr(), w.Stop, nil
		}},
		{"baseline", func() (string, func(), error) {
			p, err := baseline.NewPlainServer("127.0.0.1:0", storage.NewNull(), "p", redisclone.AOFOff)
			if err != nil {
				return "", nil, err
			}
			return p.Addr(), p.Stop, nil
		}},
	}
	for _, srv := range servers {
		t.Run(srv.name, func(t *testing.T) {
			addr, stop, err := srv.start()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(stop) // Stop is idempotent
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
			wire.WriteFrame(bw, wire.FrameBatchRequest, wire.EncodeBatchRequest(req))
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
		})
	}
}
