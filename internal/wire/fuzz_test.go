package wire

import (
	"bytes"
	"testing"

	"dpr/internal/core"
	"dpr/internal/libdpr"
)

// The fuzz targets below feed arbitrary payloads into the three frame
// decoders. Decoders must either reject a payload or produce a value that
// re-encodes and re-decodes to the same thing; they must never panic,
// over-allocate from attacker-controlled counts, or silently accept frames
// with trailing garbage. Seed corpora live in testdata/fuzz/ so every CI run
// exercises the interesting shapes without a fuzzing engine; `go test
// -fuzz=FuzzDecodeBatchRequest ./internal/wire` explores from there.

func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add(AppendBatchRequest(nil, &BatchRequest{
		Header: libdpr.BatchHeader{
			SessionID: 7, WorldLine: 1, Vs: 3, SeqStart: 9, NumOps: 2,
			Dep: core.Token{Worker: 2, Version: 5},
		},
		Ops: []Op{
			{Kind: OpUpsert, Key: []byte("key"), Value: []byte("value")},
			{Kind: OpRead, Key: []byte("k2")},
		},
	}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 48))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var b, b2 BatchRequest
		if DecodeBatchRequestInto(&b, payload) != nil {
			return
		}
		// Accepted frames must round-trip: encode and decode again.
		if err := DecodeBatchRequestInto(&b2, AppendBatchRequest(nil, &b)); err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if b2.Header != b.Header || len(b2.Ops) != len(b.Ops) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", b.Header, b2.Header)
		}
		for i := range b.Ops {
			if b2.Ops[i].Kind != b.Ops[i].Kind ||
				!bytes.Equal(b2.Ops[i].Key, b.Ops[i].Key) ||
				!bytes.Equal(b2.Ops[i].Value, b.Ops[i].Value) {
				t.Fatalf("op %d round-trip mismatch", i)
			}
		}
	})
}

func FuzzDecodeBatchReply(f *testing.F) {
	f.Add(AppendBatchReply(nil, &BatchReply{
		WorldLine: 2,
		Results: []OpResult{
			{Status: StatusOK, Version: 4, Value: []byte("v")},
			{Status: StatusNotFound, Version: 4},
			{Status: StatusOK, Version: 5, Value: []byte{}},
		},
		Cut: core.Cut{1: 3, 2: 4},
	}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 48))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var r, r2 BatchReply
		if DecodeBatchReplyInto(&r, payload) != nil {
			return
		}
		if err := DecodeBatchReplyInto(&r2, AppendBatchReply(nil, &r)); err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if r2.WorldLine != r.WorldLine || len(r2.Results) != len(r.Results) || !r2.Cut.Equal(r.Cut) {
			t.Fatal("round-trip mismatch")
		}
		for i := range r.Results {
			a, b := r.Results[i], r2.Results[i]
			if a.Status != b.Status || a.Version != b.Version ||
				(a.Value == nil) != (b.Value == nil) || !bytes.Equal(a.Value, b.Value) {
				t.Fatalf("result %d round-trip mismatch: %+v vs %+v", i, a, b)
			}
		}
	})
}

func FuzzDecodeCutAdvance(f *testing.F) {
	f.Add(AppendCutAdvanceEncoded(nil, 3, AppendCut(nil, core.Cut{1: 5, 2: 9})))
	f.Add(AppendCutAdvanceEncoded(nil, 0, AppendCut(nil, core.Cut{})))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var a, a2, a3 CutAdvance
		if decodeCutAdvance(&a, payload) != nil {
			return
		}
		if err := decodeCutAdvance(&a2, AppendCutAdvanceEncoded(nil, a.WorldLine, AppendCut(nil, a.Cut))); err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if a2.WorldLine != a.WorldLine || !a2.Cut.Equal(a.Cut) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", a, a2)
		}
		// The pre-encoded splice path must produce the same bytes as the
		// map-serializing path for a single-entry cut (multi-entry cuts
		// iterate the map in arbitrary order, so compare decoded forms).
		enc := AppendCut(nil, a.Cut)
		if err := decodeCutAdvance(&a3, AppendCutAdvanceEncoded(nil, a.WorldLine, enc)); err != nil {
			t.Fatalf("spliced encoding rejected: %v", err)
		}
		if a3.WorldLine != a.WorldLine || !a3.Cut.Equal(a.Cut) {
			t.Fatal("spliced encoding decodes differently")
		}
	})
}

func FuzzDecodeError(f *testing.F) {
	f.Add(AppendError(nil, &ErrorReply{Code: ErrCodeRejected, WorldLine: 3, Message: "recover"}))
	f.Add(AppendError(nil, &ErrorReply{Code: ErrCodeBadOwner, WorldLine: 2, Message: "key not owned"}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 16))
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := DecodeError(payload)
		if err != nil {
			return
		}
		e2, err := DecodeError(AppendError(nil, e))
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if *e2 != *e {
			t.Fatalf("round-trip mismatch: %+v vs %+v", e, e2)
		}
	})
}
