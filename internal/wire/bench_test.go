package wire

import (
	"bufio"
	"testing"

	"dpr/internal/core"
	"dpr/internal/libdpr"
)

// loopReader replays one frame forever, so frame-read benchmarks measure
// parsing rather than transport.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.frame) {
		l.off = 0
	}
	n := copy(p, l.frame[l.off:])
	l.off += n
	return n, nil
}

func newLoopReader(frame []byte) *bufio.Reader {
	return bufio.NewReaderSize(&loopReader{frame: frame}, 1<<16)
}

func benchBatch(n int) *BatchRequest {
	req := &BatchRequest{
		Header: libdpr.BatchHeader{
			SessionID: 7, WorldLine: 1, Vs: 42, SeqStart: 1000, NumOps: uint32(n),
			Dep: core.Token{Worker: 3, Version: 41},
		},
	}
	for i := 0; i < n; i++ {
		req.Ops = append(req.Ops, Op{
			Kind: OpUpsert, Key: []byte("12345678"), Value: []byte("abcdefgh"),
		})
	}
	return req
}

func benchReply(n int) *BatchReply {
	rep := &BatchReply{WorldLine: 1, Cut: core.Cut{1: 10, 2: 9}}
	for i := 0; i < n; i++ {
		rep.Results = append(rep.Results, OpResult{Status: StatusOK, Version: 10})
	}
	return rep
}

func BenchmarkEncodeBatch64(b *testing.B) {
	req := benchBatch(64)
	var scratch []byte
	b.ReportAllocs()
	var total int
	for i := 0; i < b.N; i++ {
		scratch = AppendBatchRequest(scratch[:0], req)
		total += len(scratch)
	}
	_ = total
}

func BenchmarkDecodeBatch64(b *testing.B) {
	payload := AppendBatchRequest(nil, benchBatch(64))
	var req BatchRequest
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if err := DecodeBatchRequestInto(&req, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeReply64(b *testing.B) {
	rep := benchReply(64)
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scratch = AppendBatchReply(scratch[:0], rep)
	}
}

// BenchmarkEncodeReply64PrecodedCut measures the steady-state server reply
// path: the piggybacked cut is pre-encoded once per refresh, not per reply.
func BenchmarkEncodeReply64PrecodedCut(b *testing.B) {
	rep := benchReply(64)
	rep.EncodedCut = AppendCut(nil, rep.Cut)
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scratch = AppendBatchReply(scratch[:0], rep)
	}
}

func BenchmarkDecodeReply64(b *testing.B) {
	payload := AppendBatchReply(nil, benchReply(64))
	var rep BatchReply
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if err := DecodeBatchReplyInto(&rep, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameReadWrite(b *testing.B) {
	// Frame round trip through an in-memory pipe-backed pair is dominated by
	// scheduling; measure the encode+decode halves directly instead via a
	// prebuilt frame in a loop reader.
	payload := AppendBatchRequest(nil, benchBatch(64))
	frame := make([]byte, 0, len(payload)+5)
	frame = append(frame, byte(len(payload)+1), byte((len(payload)+1)>>8), byte((len(payload)+1)>>16), byte((len(payload)+1)>>24))
	frame = append(frame, FrameBatchRequest)
	frame = append(frame, payload...)
	fr := NewFrameReader(newLoopReader(frame))
	defer fr.Close()
	var req BatchRequest
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		_, p, err := fr.Read()
		if err != nil {
			b.Fatal(err)
		}
		if err := DecodeBatchRequestInto(&req, p); err != nil {
			b.Fatal(err)
		}
	}
}
