package baseline

import (
	"bufio"
	"net"
	"testing"

	"dpr/internal/redisclone"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// roundTrip sends one batch over a fresh connection in raw wire framing.
func roundTrip(t *testing.T, addr string, req *wire.BatchRequest) *wire.BatchReply {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := wire.WriteFrame(bw, wire.FrameBatchRequest, wire.AppendBatchRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	tag, payload, err := wire.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if tag != wire.FrameBatchReply {
		t.Fatalf("unexpected frame tag %d", tag)
	}
	reply := new(wire.BatchReply)
	if err := wire.DecodeBatchReplyInto(reply, payload); err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestPlainServerAndProxy drives the two Figure 17/18 controls: the plain
// server directly, and behind a pass-through hop (a fault-free FaultProxy).
func TestPlainServerAndProxy(t *testing.T) {
	plain, err := NewPlainServer("127.0.0.1:0", storage.NewNull(), "p", redisclone.AOFOff)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Stop()
	proxy, err := wire.NewFaultProxy(plain.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	for _, target := range []string{plain.Addr(), proxy.Addr()} {
		req := &wire.BatchRequest{Ops: []wire.Op{
			{Kind: wire.OpUpsert, Key: []byte("k"), Value: []byte("v")},
			{Kind: wire.OpRead, Key: []byte("k")},
			{Kind: wire.OpRead, Key: []byte("absent")},
		}}
		req.Header.NumOps = 3
		reply := roundTrip(t, target, req)
		if len(reply.Results) != 3 ||
			reply.Results[0].Status != wire.StatusOK ||
			reply.Results[1].Status != wire.StatusOK || string(reply.Results[1].Value) != "v" ||
			reply.Results[2].Status != wire.StatusNotFound {
			t.Fatalf("target %s: bad reply %+v", target, reply.Results)
		}
	}
}
