package wire

import (
	"bufio"
	"bytes"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"testing/quick"

	"dpr/internal/core"
	"dpr/internal/libdpr"
)

func TestBatchRequestRoundTrip(t *testing.T) {
	req := &BatchRequest{
		Header: libdpr.BatchHeader{
			SessionID: 42, WorldLine: 3, Vs: 17, SeqStart: 1001, NumOps: 2,
			Dep: core.Token{Worker: 5, Version: 16},
		},
		Ops: []Op{
			{Kind: OpUpsert, Key: []byte("key1"), Value: []byte("value1")},
			{Kind: OpRead, Key: []byte("key2")},
		},
	}
	got := new(BatchRequest)
	if err := DecodeBatchRequestInto(got, AppendBatchRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	if got.Header != req.Header {
		t.Fatalf("header mismatch: %+v vs %+v", got.Header, req.Header)
	}
	if len(got.Ops) != 2 || !bytes.Equal(got.Ops[0].Value, []byte("value1")) ||
		got.Ops[1].Kind != OpRead || !bytes.Equal(got.Ops[1].Key, []byte("key2")) {
		t.Fatalf("ops mismatch: %+v", got.Ops)
	}
}

func TestBatchReplyRoundTrip(t *testing.T) {
	rep := &BatchReply{
		WorldLine: 2,
		Results: []OpResult{
			{Status: StatusOK, Version: 7, Value: []byte("v")},
			{Status: StatusNotFound, Version: 7},
		},
		Cut: core.Cut{1: 5, 2: 3},
	}
	got := new(BatchReply)
	if err := DecodeBatchReplyInto(got, AppendBatchReply(nil, rep)); err != nil {
		t.Fatal(err)
	}
	if got.WorldLine != 2 || len(got.Results) != 2 || !got.Cut.Equal(rep.Cut) {
		t.Fatalf("reply mismatch: %+v", got)
	}
	if got.Results[0].Status != StatusOK || string(got.Results[0].Value) != "v" ||
		got.Results[1].Status != StatusNotFound {
		t.Fatalf("results mismatch: %+v", got.Results)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := &ErrorReply{Code: ErrCodeRejected, WorldLine: 9, NewOwner: 7, Message: "client must recover"}
	got, err := DecodeError(AppendError(nil, e))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("%+v != %+v", got, e)
	}
	if got.Error() == "" {
		t.Fatal("error string must be non-empty")
	}
}

func TestTruncatedFramesRejected(t *testing.T) {
	req := &BatchRequest{Header: libdpr.BatchHeader{SessionID: 1, NumOps: 1},
		Ops: []Op{{Kind: OpUpsert, Key: []byte("k"), Value: []byte("v")}}}
	full := AppendBatchRequest(nil, req)
	for cut := 1; cut < len(full); cut += 7 {
		if err := DecodeBatchRequestInto(new(BatchRequest), full[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	rep := &BatchReply{Results: []OpResult{{Status: StatusOK}}, Cut: core.Cut{1: 1}}
	fullRep := AppendBatchReply(nil, rep)
	for cut := 1; cut < len(fullRep); cut += 5 {
		if err := DecodeBatchReplyInto(new(BatchReply), fullRep[:cut]); err == nil {
			t.Fatalf("reply truncation at %d not detected", cut)
		}
	}
}

func TestFrameIO(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		w := bufio.NewWriter(client)
		WriteFrame(w, FrameBatchRequest, []byte("hello"))
		WriteFrame(w, FrameError, []byte("world!"))
		w.Flush()
	}()
	r := bufio.NewReader(server)
	tag, p, err := ReadFrame(r)
	if err != nil || tag != FrameBatchRequest || string(p) != "hello" {
		t.Fatalf("frame 1: %d %q %v", tag, p, err)
	}
	tag, p, err = ReadFrame(r)
	if err != nil || tag != FrameError || string(p) != "world!" {
		t.Fatalf("frame 2: %d %q %v", tag, p, err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB frame
	if _, _, err := ReadFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
}

// Property: request encoding round-trips for arbitrary batches.
func TestBatchRequestRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		req := &BatchRequest{
			Header: libdpr.BatchHeader{
				SessionID: rng.Uint64(),
				WorldLine: core.WorldLine(rng.Uint64() % 1000),
				Vs:        core.Version(rng.Uint64() % 1e6),
				SeqStart:  rng.Uint64(),
				Dep:       core.Token{Worker: core.WorkerID(rng.Uint32()), Version: core.Version(rng.Uint64() % 1e6)},
			},
		}
		n := rng.Intn(20)
		req.Header.NumOps = uint32(n)
		for i := 0; i < n; i++ {
			op := Op{Kind: byte(rng.Intn(4) + 1), Key: make([]byte, rng.Intn(64)+1)}
			rng.Read(op.Key)
			if op.Kind != OpRead && op.Kind != OpDelete {
				op.Value = make([]byte, rng.Intn(256))
				rng.Read(op.Value)
			}
			req.Ops = append(req.Ops, op)
		}
		got := new(BatchRequest)
		err := DecodeBatchRequestInto(got, AppendBatchRequest(nil, req))
		if err != nil || got.Header != req.Header || len(got.Ops) != len(req.Ops) {
			return false
		}
		for i := range req.Ops {
			if got.Ops[i].Kind != req.Ops[i].Kind ||
				!bytes.Equal(got.Ops[i].Key, req.Ops[i].Key) ||
				!bytes.Equal(got.Ops[i].Value, req.Ops[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
