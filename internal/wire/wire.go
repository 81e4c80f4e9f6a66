// Package wire defines the binary protocol between D-FASTER/D-Redis clients
// and workers: length-prefixed frames carrying request batches with DPR
// headers (§6) and replies with per-operation versions plus a piggybacked
// DPR cut. The encoding is hand-rolled little-endian — no reflection — so
// the serialization cost stays negligible next to the operations themselves.
//
// # Memory discipline
//
// The hot path is allocation-free in steady state. The rules:
//
//   - FrameReader reads every frame into one reusable per-connection buffer
//     (pool-backed). The payload returned by FrameReader.Read is valid only
//     until the next Read; retaining it across frames is a bug.
//   - DecodeBatchRequest / DecodeBatchRequestInto alias Op.Key and Op.Value
//     into the frame payload — zero copy. The decoded batch must be fully
//     consumed (executed or copied) before the payload buffer is reused.
//     Store layers that retain key/value bytes must copy them (kv copies
//     into its log; redisclone copies in its event loop).
//   - DecodeBatchReply / DecodeBatchReplyInto alias OpResult.Value into the
//     payload under the same contract.
//   - AppendBatchRequest/AppendBatchReply/AppendError append into a
//     caller-owned scratch buffer; callers reuse the buffer across frames.
//     The copy into that buffer is the single copy-before-reply point at
//     the wire boundary.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"dpr/internal/core"
	"dpr/internal/libdpr"
)

// Frame type tags.
const (
	FrameBatchRequest byte = 1
	FrameBatchReply   byte = 2
	FrameError        byte = 3
)

// Op kinds inside a batch.
const (
	OpRead   byte = 1
	OpUpsert byte = 2
	OpDelete byte = 3
	OpRMW    byte = 4
)

// Op statuses in replies (mirrors kv.Status but wire-stable).
const (
	StatusOK       byte = 0
	StatusNotFound byte = 1
	StatusError    byte = 3
)

// Error codes in error frames.
const (
	ErrCodeRejected  byte = 1 // world-line mismatch: client must recover
	ErrCodeBadOwner  byte = 2 // key not owned by this worker
	ErrCodeInternal  byte = 3
	ErrCodeRetryable byte = 4
	ErrCodeStale     byte = 5 // batch seq range superseded within its session
	ErrCodeMoved     byte = 6 // partition migrated away; ErrorReply.NewOwner is the new owner
)

// MaxFrameSize bounds a single frame (16 MiB).
const MaxFrameSize = 16 << 20

// Op is one operation in a batch.
type Op struct {
	Kind  byte
	Key   []byte
	Value []byte // upsert payload, or 8-byte RMW delta
}

// BatchRequest is a client→worker frame.
type BatchRequest struct {
	Header libdpr.BatchHeader
	Ops    []Op
}

// OpResult is one operation's outcome in a reply. A nil Value means the
// operation produced no value (write acks, misses); a non-nil empty Value is
// a legitimate zero-length read result and is preserved on the wire.
type OpResult struct {
	Status  byte
	Version core.Version
	Value   []byte
}

// BatchReply is a worker→client frame.
type BatchReply struct {
	WorldLine core.WorldLine
	Results   []OpResult
	Cut       core.Cut
	// EncodedCut, when non-nil, is a pre-encoded cut section (produced by
	// AppendCut) spliced verbatim into the encoding in place of Cut. libDPR
	// workers pre-encode the piggybacked cut once per refresh instead of
	// re-serializing the map on every reply. Encode-side only; decoding
	// always populates Cut.
	EncodedCut []byte
	// CutGen is libdpr.BatchReply.CutGen for a reply handed over in process
	// (co-located execution); it is not encoded, and decodes as zero.
	CutGen uint64
}

// ErrorReply is a worker→client error frame. NewOwner is meaningful only for
// ErrCodeMoved: the worker that now owns the batch's partition, so the client
// can re-route a redirected batch without a metadata round trip.
type ErrorReply struct {
	Code      byte
	WorldLine core.WorldLine
	NewOwner  core.WorkerID
	Message   string
}

func (e *ErrorReply) Error() string {
	return fmt.Sprintf("wire: remote error %d (world-line %d): %s", e.Code, e.WorldLine, e.Message)
}

// ---- encoding helpers ----

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) u8() byte {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}
func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}
func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// bytes returns a slice aliasing the decode buffer (zero copy). Zero-length
// fields decode to a non-nil empty slice.
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	v := d.buf[d.off : d.off+n]
	d.off += n
	return v
}

// Decode errors are package-level sentinels: the decoders are //dpr:noalloc
// and an inline errors.New would heap-allocate per malformed frame on an
// attacker-controlled reject path.
var (
	errTruncatedFrame = errors.New("wire: truncated frame")
	errOpCount        = errors.New("wire: op count exceeds frame")
	errResultCount    = errors.New("wire: result count exceeds frame")
	errCutCount       = errors.New("wire: cut entry count exceeds frame")
	errPartCount      = errors.New("wire: partition count exceeds frame")
	errRecordCount    = errors.New("wire: record count exceeds frame")
)

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errTruncatedFrame
	}
}

// finish flags frames with bytes beyond the decoded content (oversized or
// corrupt frames must not be silently accepted).
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes after frame content", len(d.buf)-d.off)
	}
	return nil
}

// ---- buffer pool ----

// bufPool recycles frame/scratch buffers across connections. Buffers are
// pooled as pointers-to-slices so Put does not allocate.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuffer fetches a zero-length scratch buffer from the pool.
func GetBuffer() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuffer returns a scratch buffer to the pool. The caller must not use
// the buffer (or any slice aliasing it) afterwards.
func PutBuffer(b *[]byte) {
	if b == nil || cap(*b) > MaxFrameSize {
		return // don't pool pathological giants
	}
	bufPool.Put(b)
}

// ---- frame I/O ----

// WriteFrame writes a tagged, length-prefixed frame. The header goes out
// byte-by-byte rather than via a stack array: a slice of a local array
// escapes into the underlying io.Writer interface and heap-allocates per
// frame, while WriteByte stays on the bufio fast path. bufio errors are
// sticky, so the final Write reports any earlier failure.
//
//dpr:noalloc
func WriteFrame(w *bufio.Writer, tag byte, payload []byte) error {
	n := uint32(len(payload) + 1)
	w.WriteByte(byte(n))
	w.WriteByte(byte(n >> 8))
	w.WriteByte(byte(n >> 16))
	w.WriteByte(byte(n >> 24))
	w.WriteByte(tag)
	_, err := w.Write(payload)
	return err
}

// FrameReader reads frames into a reusable pool-backed buffer, so steady
// state frame input performs no allocation. The payload returned by Read is
// valid only until the next Read (or Close).
type FrameReader struct {
	r   *bufio.Reader
	buf *[]byte
}

// NewFrameReader wraps r with a pooled frame buffer.
func NewFrameReader(r *bufio.Reader) *FrameReader {
	return &FrameReader{r: r, buf: GetBuffer()}
}

// Read reads one frame, returning its tag and payload. The payload aliases
// the reader's internal buffer: it is overwritten by the next Read.
//
//dpr:noalloc
func (fr *FrameReader) Read() (byte, []byte, error) {
	// Peek the length prefix out of the bufio buffer instead of ReadFull
	// into a local array: the array escapes into the io.Reader interface
	// and heap-allocates per frame.
	hdr, err := fr.r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	fr.r.Discard(4)
	if n == 0 || n > MaxFrameSize {
		return 0, nil, fmt.Errorf("wire: bad frame size %d", n) //dpr:ignore hotpath-noalloc cold reject path: only corrupt length prefixes reach the formatter
	}
	buf := *fr.buf
	if cap(buf) < n {
		buf = make([]byte, n) //dpr:ignore hotpath-noalloc grows once to the connection frame high-water mark; steady state reuses the pooled buffer
		*fr.buf = buf
	}
	buf = buf[:n]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// Buffered reports how many bytes of unread input sit in the underlying
// reader — a "more frames immediately available" probe for flush batching.
func (fr *FrameReader) Buffered() int { return fr.r.Buffered() }

// Close returns the frame buffer to the pool. The FrameReader (and any
// payload it returned) must not be used afterwards.
func (fr *FrameReader) Close() {
	if fr.buf != nil {
		PutBuffer(fr.buf)
		fr.buf = nil
	}
}

// ReadFrame reads one frame into a freshly allocated payload. Transient
// callers only; connection loops should hold a FrameReader instead.
func ReadFrame(r *bufio.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameSize {
		return 0, nil, fmt.Errorf("wire: bad frame size %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return payload[0], payload[1:], nil
}

// ---- batch request ----

// AppendBatchRequest appends the request encoding to dst and returns the
// extended buffer. Steady-state callers reuse dst across batches.
//
//dpr:noalloc
func AppendBatchRequest(dst []byte, b *BatchRequest) []byte {
	h := b.Header
	dst = appendU64(dst, h.SessionID)
	dst = appendU64(dst, uint64(h.WorldLine))
	dst = appendU64(dst, uint64(h.Vs))
	dst = appendU64(dst, h.SeqStart)
	dst = appendU32(dst, h.NumOps)
	dst = appendU32(dst, uint32(h.Dep.Worker))
	dst = appendU64(dst, uint64(h.Dep.Version))
	var flags byte
	if h.Redirected {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = appendU32(dst, uint32(len(b.Ops)))
	for i := range b.Ops {
		op := &b.Ops[i]
		dst = append(dst, op.Kind)
		dst = appendBytes(dst, op.Key)
		dst = appendBytes(dst, op.Value)
	}
	return dst
}

// DecodeBatchRequestInto parses a batch request payload into b, reusing
// b.Ops. Keys and values alias p (zero copy): the caller owns p and must not
// reuse it until the decoded batch has been fully consumed.
//
//dpr:noalloc
func DecodeBatchRequestInto(b *BatchRequest, p []byte) error {
	d := &decoder{buf: p}
	b.Header.SessionID = d.u64()
	b.Header.WorldLine = core.WorldLine(d.u64())
	b.Header.Vs = core.Version(d.u64())
	b.Header.SeqStart = d.u64()
	b.Header.NumOps = d.u32()
	b.Header.Dep.Worker = core.WorkerID(d.u32())
	b.Header.Dep.Version = core.Version(d.u64())
	b.Header.Redirected = d.u8()&1 != 0
	n := int(d.u32())
	b.Ops = b.Ops[:0]
	if d.err == nil && n > 0 {
		if n > len(p) { // cheap sanity bound: each op needs ≥9 bytes
			return errOpCount
		}
		if cap(b.Ops) < n {
			b.Ops = make([]Op, n) //dpr:ignore hotpath-noalloc grows once to the batch high-water mark; steady state reuses b.Ops
		}
		b.Ops = b.Ops[:n]
		for i := 0; i < n; i++ {
			b.Ops[i].Kind = d.u8()
			b.Ops[i].Key = d.bytes()
			b.Ops[i].Value = d.bytes()
		}
	}
	if err := d.finish(); err != nil {
		b.Ops = b.Ops[:0]
		return err
	}
	if b.Header.NumOps != uint32(n) {
		b.Ops = b.Ops[:0]
		return fmt.Errorf("wire: header claims %d ops, frame carries %d", b.Header.NumOps, n) //dpr:ignore hotpath-noalloc cold reject path: only malformed frames reach the formatter
	}
	return nil
}

// ---- batch reply ----

// AppendCut appends the cut section encoding (entry count + entries) to dst.
// The result can be cached and spliced into replies via BatchReply.EncodedCut.
//
//dpr:ignore cut-worldline encode-only splice helper; the (world-line, cut) pairing is fixed where the snapshot is captured (libdpr cutSnapshot) and the world-line travels in the reply header
func AppendCut(dst []byte, c core.Cut) []byte {
	dst = appendU32(dst, uint32(len(c)))
	for w, v := range c {
		dst = appendU32(dst, uint32(w))
		dst = appendU64(dst, uint64(v))
	}
	return dst
}

// AppendBatchReply appends the reply encoding to dst and returns the
// extended buffer. Values are copied out of r.Results here — this is the
// copy-before-reply point for results that alias store memory or a batch
// arena. If r.EncodedCut is non-nil it is spliced verbatim (and r.Cut is
// ignored); otherwise the cut map is serialized.
//
//dpr:noalloc
func AppendBatchReply(dst []byte, r *BatchReply) []byte {
	dst = appendU64(dst, uint64(r.WorldLine))
	dst = appendU32(dst, uint32(len(r.Results)))
	for i := range r.Results {
		res := &r.Results[i]
		dst = append(dst, res.Status)
		dst = appendU64(dst, uint64(res.Version))
		if res.Value == nil {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			dst = appendBytes(dst, res.Value)
		}
	}
	if r.EncodedCut != nil {
		return append(dst, r.EncodedCut...)
	}
	return AppendCut(dst, r.Cut)
}

// CutMemo is one connection's memory of the cut section it decoded last,
// batch reply or cut advance. A worker splices the same pre-encoded bytes into
// every frame of a commit round, so a reader that compares the raw section
// first decodes a cut — and lets its session fold one — once per round, not
// once per frame. The zero value is ready; a nil *CutMemo decodes every frame.
type CutMemo struct {
	wl      core.WorldLine
	section []byte // empty until a cut has decoded: no valid section is
	cut     core.Cut
}

// decodeCut decodes the cut section that ends d's buffer into *cut, reusing
// the map. Through a memo the map is the memo's own (valid until its next
// decode), and *cut is nil instead when the section repeats, byte for byte and
// on world-line wl, the last one that decoded cleanly. On error the map is
// left empty.
//
//dpr:noalloc
func (m *CutMemo) decodeCut(d *decoder, wl core.WorldLine, cut *core.Cut) error {
	section := d.buf[min(d.off, len(d.buf)):]
	if m != nil {
		if *cut = m.cut; len(m.section) > 0 && d.err == nil && wl == m.wl && bytes.Equal(section, m.section) {
			*cut = nil
			return nil
		}
	}
	n := int(d.u32())
	if d.err == nil && n > len(d.buf) { // each entry needs 12 bytes
		// Validate before sizing the map: a corrupt count must not drive a
		// gigantic pre-allocation.
		clear(*cut)
		return errCutCount
	}
	if *cut == nil {
		*cut = make(core.Cut, n) //dpr:ignore hotpath-noalloc first decode only; later decodes clear and refill the map
	} else {
		clear(*cut)
	}
	for i := 0; i < n && d.err == nil; i++ {
		w := core.WorkerID(d.u32())
		v := core.Version(d.u64())
		if d.err == nil {
			(*cut)[w] = v
		}
	}
	if err := d.finish(); err != nil {
		clear(*cut)
		return err
	}
	if m != nil {
		m.wl, m.cut = wl, *cut
		m.section = append(m.section[:0], section...) //dpr:ignore hotpath-noalloc grows once to the cut's size; a section is a few entries
	}
	return nil
}

// DecodeBatchReply is DecodeBatchReplyInto through the connection's memo:
// r.Cut is nil when the frame's cut section repeats the last one decoded on
// this connection, and the memo's map, not r's, when it does not.
//
//dpr:noalloc
func (m *CutMemo) DecodeBatchReply(r *BatchReply, p []byte) error {
	d := &decoder{buf: p}
	r.WorldLine = core.WorldLine(d.u64())
	n := int(d.u32())
	r.Results = r.Results[:0]
	r.EncodedCut, r.CutGen = nil, 0
	if d.err == nil && n > 0 {
		if n > len(p) {
			return errResultCount
		}
		if cap(r.Results) < n {
			r.Results = make([]OpResult, n) //dpr:ignore hotpath-noalloc grows once to the batch high-water mark; steady state reuses r.Results
		}
		r.Results = r.Results[:n]
		for i := 0; i < n; i++ {
			r.Results[i].Status = d.u8()
			r.Results[i].Version = core.Version(d.u64())
			if d.u8() != 0 {
				r.Results[i].Value = d.bytes()
			} else {
				r.Results[i].Value = nil
			}
		}
	}
	err := m.decodeCut(d, r.WorldLine, &r.Cut)
	if err != nil {
		r.Results = r.Results[:0]
	}
	return err
}

// DecodeBatchReplyInto parses a reply payload into r, reusing r.Results and
// r.Cut. Values alias p (zero copy): the caller owns p and must not reuse it
// until the decoded reply has been fully consumed. Absent values decode as
// nil; present zero-length values decode as non-nil empty slices.
//
//dpr:noalloc
func DecodeBatchReplyInto(r *BatchReply, p []byte) error {
	return (*CutMemo)(nil).DecodeBatchReply(r, p)
}

// ---- error reply ----

// AppendError appends the error encoding to dst.
//
//dpr:noalloc
func AppendError(dst []byte, e *ErrorReply) []byte {
	dst = append(dst, e.Code)
	dst = appendU64(dst, uint64(e.WorldLine))
	dst = appendU32(dst, uint32(e.NewOwner))
	dst = appendU32(dst, uint32(len(e.Message)))
	return append(dst, e.Message...)
}

// DecodeError parses an error payload.
func DecodeError(p []byte) (*ErrorReply, error) {
	d := &decoder{buf: p}
	var e ErrorReply
	e.Code = d.u8()
	e.WorldLine = core.WorldLine(d.u64())
	e.NewOwner = core.WorkerID(d.u32())
	e.Message = string(d.bytes())
	if err := d.finish(); err != nil {
		return nil, err
	}
	return &e, nil
}
