package wire

import (
	"bufio"
	"bytes"
	"io"
	"maps"
	"math/rand"
	"testing"

	"dpr/internal/allocpin"
	"dpr/internal/core"
	"dpr/internal/libdpr"
)

// TestNumOpsMismatchRejected checks that the header's claimed op count must
// match the number of ops the frame actually carries — a malformed or
// malicious frame must not smuggle a different batch size past libDPR's
// sequence-number accounting.
func TestNumOpsMismatchRejected(t *testing.T) {
	req := &BatchRequest{
		Header: libdpr.BatchHeader{SessionID: 1, NumOps: 2},
		Ops: []Op{
			{Kind: OpUpsert, Key: []byte("k1"), Value: []byte("v1")},
			{Kind: OpRead, Key: []byte("k2")},
		},
	}
	good := AppendBatchRequest(nil, req)
	if err := DecodeBatchRequestInto(new(BatchRequest), good); err != nil {
		t.Fatalf("matching NumOps must decode: %v", err)
	}
	for _, claim := range []uint32{0, 1, 3, 1 << 20} {
		req.Header.NumOps = claim
		payload := AppendBatchRequest(nil, req)
		if err := DecodeBatchRequestInto(new(BatchRequest), payload); err == nil {
			t.Fatalf("NumOps=%d with 2 ops must be rejected", claim)
		}
	}
}

// TestReplyEmptyVsAbsentValue checks the presence encoding: a found key with
// an empty value must decode as a non-nil empty slice, distinguishable from
// an absent value (nil).
func TestReplyEmptyVsAbsentValue(t *testing.T) {
	rep := &BatchReply{
		Results: []OpResult{
			{Status: StatusOK, Version: 3, Value: []byte{}},    // present, empty
			{Status: StatusNotFound, Version: 3},               // absent
			{Status: StatusOK, Version: 3, Value: []byte("x")}, // present
		},
		Cut: core.Cut{1: 2},
	}
	got := new(BatchReply)
	if err := DecodeBatchReplyInto(got, AppendBatchReply(nil, rep)); err != nil {
		t.Fatal(err)
	}
	if got.Results[0].Value == nil || len(got.Results[0].Value) != 0 {
		t.Fatalf("present empty value decoded as %v, want non-nil empty", got.Results[0].Value)
	}
	if got.Results[1].Value != nil {
		t.Fatalf("absent value decoded as %v, want nil", got.Results[1].Value)
	}
	if string(got.Results[2].Value) != "x" {
		t.Fatalf("value mismatch: %q", got.Results[2].Value)
	}
}

// TestTrailingBytesRejected checks that frames carrying extra bytes beyond
// the encoded structure are rejected for all three frame types.
func TestTrailingBytesRejected(t *testing.T) {
	req := AppendBatchRequest(nil, &BatchRequest{
		Header: libdpr.BatchHeader{NumOps: 1},
		Ops:    []Op{{Kind: OpRead, Key: []byte("k")}},
	})
	if err := DecodeBatchRequestInto(new(BatchRequest), append(req, 0xAA)); err == nil {
		t.Fatal("request with trailing bytes must be rejected")
	}
	rep := AppendBatchReply(nil, &BatchReply{Results: []OpResult{{Status: StatusOK}}})
	if err := DecodeBatchReplyInto(new(BatchReply), append(rep, 0xAA)); err == nil {
		t.Fatal("reply with trailing bytes must be rejected")
	}
	er := AppendError(nil, &ErrorReply{Code: ErrCodeInternal, Message: "m"})
	if _, err := DecodeError(append(er, 0xAA)); err == nil {
		t.Fatal("error with trailing bytes must be rejected")
	}
}

// TestErrorTruncationRejected extends the truncation coverage to error
// frames (requests and replies are covered in wire_test.go).
func TestErrorTruncationRejected(t *testing.T) {
	full := AppendError(nil, &ErrorReply{Code: ErrCodeRejected, WorldLine: 4, Message: "client must recover"})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeError(full[:cut]); err == nil {
			t.Fatalf("error truncation at %d not detected", cut)
		}
	}
}

// TestDecodeMutatedFrames feeds randomly mutated valid frames to all three
// decoders: every outcome must be a clean decode or an error, never a panic
// or an out-of-range slice. This is the fuzz-style guard for the
// alias-decoding paths.
func TestDecodeMutatedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	req := AppendBatchRequest(nil, &BatchRequest{
		Header: libdpr.BatchHeader{SessionID: 9, NumOps: 3},
		Ops: []Op{
			{Kind: OpUpsert, Key: []byte("key-a"), Value: []byte("value-a")},
			{Kind: OpRead, Key: []byte("key-b")},
			{Kind: OpRMW, Key: []byte("key-c"), Value: make([]byte, 8)},
		},
	})
	rep := AppendBatchReply(nil, &BatchReply{
		WorldLine: 2,
		Results: []OpResult{
			{Status: StatusOK, Version: 5, Value: []byte("v0")},
			{Status: StatusNotFound, Version: 5},
		},
		Cut: core.Cut{1: 4, 2: 3},
	})
	er := AppendError(nil, &ErrorReply{Code: ErrCodeBadOwner, WorldLine: 1, Message: "not owned"})
	corpus := [][]byte{req, rep, er}
	mutated := make([]byte, 0, 256)
	for iter := 0; iter < 5000; iter++ {
		orig := corpus[iter%len(corpus)]
		mutated = append(mutated[:0], orig...)
		switch iter % 4 {
		case 0: // flip random bytes
			for k := 0; k < 1+rng.Intn(4); k++ {
				mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate
			mutated = mutated[:rng.Intn(len(mutated))]
		case 2: // extend with garbage
			for k := 0; k < 1+rng.Intn(16); k++ {
				mutated = append(mutated, byte(rng.Intn(256)))
			}
		case 3: // overwrite a length field with a huge value
			if len(mutated) >= 4 {
				off := rng.Intn(len(mutated) - 3)
				mutated[off], mutated[off+1], mutated[off+2], mutated[off+3] = 0xFF, 0xFF, 0xFF, 0x7F
			}
		}
		var reqOut BatchRequest
		_ = DecodeBatchRequestInto(&reqOut, mutated)
		var repOut BatchReply
		_ = DecodeBatchReplyInto(&repOut, mutated)
		_, _ = DecodeError(mutated)
	}
}

// TestFrameReaderReuse checks that consecutive reads reuse the same buffer
// and that payloads from closed readers came from the pool.
func TestFrameReaderReuse(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := WriteFrame(w, FrameBatchRequest, []byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	fr := NewFrameReader(bufio.NewReader(&buf))
	defer fr.Close()
	var prev []byte
	for i := 0; i < 3; i++ {
		tag, p, err := fr.Read()
		if err != nil || tag != FrameBatchRequest {
			t.Fatalf("frame %d: tag %d err %v", i, tag, err)
		}
		if p[0] != byte(i) {
			t.Fatalf("frame %d: payload %v", i, p)
		}
		if prev != nil && &prev[0] != &p[0] {
			t.Fatal("payload must alias the reused frame buffer")
		}
		prev = p
	}
}

// ---- zero-allocation pins for the hot-path encode/decode APIs ----

// decodeCutAdvance decodes a pushed cut without a connection's memo.
var decodeCutAdvance = (*CutMemo)(nil).DecodeCutAdvance

// TestEncodeDecodeZeroAlloc pins every encoder and decoder of the batch path
// and the push path. Each decode target is fresh, so its growth to the
// high-water mark happens in the measured warm-up call.
func TestEncodeDecodeZeroAlloc(t *testing.T) {
	req := benchBatch(64)
	req.Header.Redirected = true
	reqPayload := AppendBatchRequest(nil, req)
	rep := benchReply(64)
	for i := 0; i < len(rep.Results); i += 2 {
		rep.Results[i].Value = []byte("value")
	}
	rep.EncodedCut = AppendCut(nil, rep.Cut)
	repPayload := AppendBatchReply(nil, rep)
	cutPayload := AppendCutAdvanceEncoded(nil, rep.WorldLine, rep.EncodedCut)
	refusal := &ErrorReply{Code: ErrCodeBadOwner, WorldLine: 3, Message: "key not owned"}

	var scratch []byte
	allocpin.Zero(t, "AppendBatchRequest", 100, func() {
		scratch = AppendBatchRequest(scratch[:0], req)
	})
	allocpin.Zero(t, "AppendBatchReply", 100, func() {
		scratch = AppendBatchReply(scratch[:0], rep)
	})
	allocpin.Zero(t, "AppendCutAdvanceEncoded", 100, func() {
		scratch = AppendCutAdvanceEncoded(scratch[:0], rep.WorldLine, rep.EncodedCut)
	})
	allocpin.Zero(t, "AppendError", 100, func() {
		scratch = AppendError(scratch[:0], refusal)
	})
	var reqOut BatchRequest
	allocpin.Zero(t, "DecodeBatchRequestInto", 100, func() {
		if err := DecodeBatchRequestInto(&reqOut, reqPayload); err != nil {
			t.Fatal(err)
		}
	})
	var repOut BatchReply
	allocpin.Zero(t, "DecodeBatchReplyInto", 100, func() {
		if err := DecodeBatchReplyInto(&repOut, repPayload); err != nil {
			t.Fatal(err)
		}
	})
	var cutOut CutAdvance
	allocpin.Zero(t, "DecodeCutAdvance without a memo", 100, func() {
		if err := decodeCutAdvance(&cutOut, cutPayload); err != nil {
			t.Fatal(err)
		}
	})
	// Through a memo the first section decodes and is remembered; every later
	// frame, reply or push, repeats it and is recognised without a decode.
	var memo CutMemo
	var memoRep BatchReply
	var memoAdv CutAdvance
	allocpin.Zero(t, "a connection's memo", 100, func() {
		if err := memo.DecodeBatchReply(&memoRep, repPayload); err != nil {
			t.Fatal(err)
		}
		if err := memo.DecodeCutAdvance(&memoAdv, cutPayload); err != nil || memoAdv.Cut != nil {
			t.Fatalf("a pushed repeat of the reply's cut: %v, cut %v", err, memoAdv.Cut)
		}
	})
}

// TestCutAdvanceRejects pins the cut-advance decode guards: truncation at
// every offset, trailing garbage, and oversized entry counts must all error
// without panicking or over-allocating.
func TestCutAdvanceRejects(t *testing.T) {
	full := AppendCutAdvanceEncoded(nil, 4, AppendCut(nil, core.Cut{1: 2, 3: 4}))
	for cut := 0; cut < len(full); cut++ {
		if err := decodeCutAdvance(new(CutAdvance), full[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	if err := decodeCutAdvance(new(CutAdvance), append(append([]byte{}, full...), 0xAA)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
	huge := appendU64(nil, 1)
	huge = appendU32(huge, 1<<30) // count far beyond the payload
	if err := decodeCutAdvance(new(CutAdvance), huge); err == nil {
		t.Fatal("oversized cut count must be rejected before allocation")
	}
	// A failed decode into a reused value must not leave stale entries
	// behind: the next push would otherwise merge two cuts.
	var a CutAdvance
	if err := decodeCutAdvance(&a, full); err != nil || len(a.Cut) != 2 {
		t.Fatalf("valid decode: %v (%v)", err, a.Cut)
	}
	if err := decodeCutAdvance(&a, full[:len(full)-3]); err == nil || len(a.Cut) != 0 {
		t.Fatalf("failed decode left stale cut entries: %v (%v)", err, a.Cut)
	}
}

// TestFrameIOZeroAlloc pins frame input and output. The frame is larger than
// the pooled buffer a reader starts with, so the reader grows it once, in the
// measured warm-up call.
func TestFrameIOZeroAlloc(t *testing.T) {
	payload := AppendBatchRequest(nil, benchBatch(1024))
	frame := make([]byte, 0, len(payload)+5)
	n := uint32(len(payload) + 1)
	frame = append(frame, byte(n), byte(n>>8), byte(n>>16), byte(n>>24), FrameBatchRequest)
	frame = append(frame, payload...)
	fr := NewFrameReader(newLoopReader(frame))
	defer fr.Close()
	allocpin.Zero(t, "FrameReader.Read", 100, func() {
		if _, _, err := fr.Read(); err != nil {
			t.Fatal(err)
		}
	})
	// A connection's end between frames reads as the reader's own io.EOF.
	var empty bytes.Reader
	closed := NewFrameReader(bufio.NewReader(&empty))
	defer closed.Close()
	allocpin.Zero(t, "FrameReader.Read at the end of its input", 100, func() {
		if _, _, err := closed.Read(); err != io.EOF {
			t.Fatalf("read at the end: %v, want io.EOF", err)
		}
	})
	// Sized so the ~101 frames of the measurement loop never trigger a
	// flush: the pin measures WriteFrame itself.
	var sink bytes.Buffer
	bw := bufio.NewWriterSize(&sink, 1<<22)
	allocpin.Zero(t, "WriteFrame", 100, func() {
		if err := WriteFrame(bw, FrameBatchRequest, payload); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCutMemo: a connection's memo hands over a frame's cut the first time its
// bytes are seen and nil until they change — by one byte, by the
// world-line they ride on, or because another frame's cut came in between —
// whether the cut arrives in a batch reply or in a pushed cut advance; a frame
// that does not decode is not remembered.
func TestCutMemo(t *testing.T) {
	section := AppendCut(nil, core.Cut{1: 5, 2: 7})
	reply := func(wl core.WorldLine, encodedCut []byte) []byte {
		return AppendBatchReply(nil, &BatchReply{WorldLine: wl, EncodedCut: encodedCut,
			Results: []OpResult{{Status: StatusOK, Version: 3, Value: []byte("v")}}})
	}
	moved := bytes.Clone(section)
	moved[len(moved)-8]++ // the low byte of the last entry's version
	var adv CutAdvance
	if err := decodeCutAdvance(&adv, AppendCutAdvanceEncoded(nil, 0, moved)); err != nil {
		t.Fatal(err)
	}
	want := adv.Cut

	var memo CutMemo
	var r BatchReply
	var a CutAdvance
	for i, step := range []struct {
		name  string
		push  bool
		wl    core.WorldLine
		cut   []byte
		fresh bool
		bad   bool
	}{
		{"first reply", false, 0, section, true, false},
		{"the same reply", false, 0, section, false, false},
		{"a push of the same cut", true, 0, section, false, false},
		{"a push, one byte moved", true, 0, moved, true, false},
		{"a reply repeating the push", false, 0, moved, false, false},
		{"a truncated reply", false, 0, moved[:len(moved)-1], false, true},
		{"the reply again", false, 0, moved, false, false},
		{"the same bytes on another world-line", false, 1, moved, true, false},
		{"back to the first cut", false, 1, section, true, false},
	} {
		var err error
		got := &r.Cut
		if step.push {
			got = &a.Cut
			err = memo.DecodeCutAdvance(&a, AppendCutAdvanceEncoded(nil, step.wl, step.cut))
		} else {
			err = memo.DecodeBatchReply(&r, reply(step.wl, step.cut))
		}
		if fresh := err == nil && *got != nil; fresh != step.fresh || (err != nil) != step.bad {
			t.Fatalf("step %d (%s): cut %v, err %v; want a fresh cut %v, an error %v", i, step.name, *got, err, step.fresh, step.bad)
		}
		if err == nil && !step.push && (len(r.Results) != 1 || string(r.Results[0].Value) != "v" || r.WorldLine != step.wl) {
			t.Fatalf("step %d (%s): results %+v on world-line %d", i, step.name, r.Results, r.WorldLine)
		}
		if step.fresh && bytes.Equal(step.cut, moved) && !maps.Equal(*got, want) {
			t.Fatalf("step %d (%s): decoded %v, want %v", i, step.name, *got, want)
		}
	}
	// Without a memo every frame is decoded.
	for i := 0; i < 2; i++ {
		if err := DecodeBatchReplyInto(&r, reply(0, section)); err != nil || !maps.Equal(r.Cut, core.Cut{1: 5, 2: 7}) {
			t.Fatalf("no memo, decode %d: err %v, cut %v", i, err, r.Cut)
		}
	}
}
