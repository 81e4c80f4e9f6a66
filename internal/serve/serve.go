// Package serve is the one serving frame every wire-protocol server in the
// tree sits on (D-FASTER, D-Redis, the plain-Redis baseline): the listener and
// its tracked connections (package listen), the per-connection frame loop,
// and the cut-advance push fan-out. A backend supplies only what differs per
// store: an Execute step over its state object.
package serve

import (
	"bufio"
	"net"
	"sync"
	"time"

	"dpr/internal/core"
	"dpr/internal/serve/listen"
	"dpr/internal/wire"
)

// writeTimeout bounds every socket write made under a connection's write
// mutex, replies and pushes alike, so the mutex — and with it the libDPR
// maintenance goroutine that fans pushes out — is never held hostage by a
// peer that stopped reading. A connection that cannot take a frame for this
// long is severed; its session relearns the cut from its next reply, as after
// any sever.
const writeTimeout = time.Second

// Handler is one connection's backend state, built by the Server's open
// callback when the connection is accepted. The frame loop calls it from a
// single goroutine.
type Handler struct {
	// Execute runs one decoded batch. The request aliases the connection's
	// read buffer and the reply may alias per-connection scratch; both are
	// consumed before the next call.
	Execute func(req *wire.BatchRequest) (*wire.BatchReply, *wire.ErrorReply)
	// Close releases the connection's backend state (may be nil).
	Close func()
}

// Server runs the frame loop on every connection of one listener and fans
// cut advances out to the connections that carry sessions.
type Server struct {
	ln   *listen.Listener // nil: no network (co-located only)
	open func() Handler

	// subs is the cut-advance subscriber set. mu is never held across a
	// socket write: the fan-out snapshots the set and writes outside it.
	mu   sync.Mutex
	subs map[*conn]struct{}
}

// conn is the writer half of a served connection, shared between the frame
// loop (replies) and PushCutAdvance under wmu.
type conn struct {
	nc  net.Conn
	wmu sync.Mutex
	bw  *bufio.Writer
}

// Listen binds addr; nothing is accepted until Start. An empty addr yields a
// server with no network side: Addr is "", Start and Stop do nothing.
func Listen(addr string) (*Server, error) {
	s := &Server{subs: make(map[*conn]struct{})}
	if addr == "" {
		return s, nil
	}
	ln, err := listen.Listen(addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return s, nil
}

// Addr returns the bound address ("" without a network side).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Start begins accepting; open builds the backend state of each connection.
func (s *Server) Start(open func() Handler) {
	s.open = open
	if s.ln != nil {
		s.ln.Serve(s.serveConn)
	}
}

// Stop closes the listener and every connection and joins their goroutines.
func (s *Server) Stop() {
	if s.ln != nil {
		s.ln.Stop()
	}
}

func (s *Server) unsubscribe(c *conn) {
	s.mu.Lock()
	delete(s.subs, c)
	s.mu.Unlock()
}

// serveConn is the frame loop: batch requests are executed in order and
// answered with a reply or an error frame; any other frame closes the
// connection. Frames land in a pooled read buffer, the request aliases it,
// and the reply is encoded into a pooled output buffer, so the loop is
// allocation-free in steady state.
func (s *Server) serveConn(nc net.Conn) {
	h := s.open()
	if h.Close != nil {
		defer h.Close()
	}
	fr := wire.NewFrameReader(bufio.NewReaderSize(nc, 1<<16))
	defer fr.Close()
	c := &conn{nc: nc, bw: bufio.NewWriterSize(nc, 1<<16)}
	defer s.unsubscribe(c)
	out := wire.GetBuffer()
	defer wire.PutBuffer(out)
	var req wire.BatchRequest
	// Cut-advance subscription is lazy: only connections that send a batch
	// request are sessions.
	subscribed := false
	for {
		tag, payload, err := fr.Read()
		if err != nil || tag != wire.FrameBatchRequest {
			return
		}
		if !subscribed {
			s.mu.Lock()
			s.subs[c] = struct{}{}
			s.mu.Unlock()
			subscribed = true
		}
		if err := wire.DecodeBatchRequestInto(&req, payload); err != nil {
			return
		}
		replyTag := wire.FrameBatchReply
		if reply, errReply := h.Execute(&req); errReply != nil {
			*out = wire.AppendError((*out)[:0], errReply)
			replyTag = wire.FrameError
		} else {
			*out = wire.AppendBatchReply((*out)[:0], reply)
		}
		c.wmu.Lock()
		nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		werr := wire.WriteFrame(c.bw, replyTag, *out)
		// Flush when no more batches are immediately available.
		if werr == nil && fr.Buffered() == 0 {
			werr = c.bw.Flush()
		}
		c.wmu.Unlock()
		if werr != nil {
			return
		}
	}
}

// PushCutAdvance fans one cut-advance frame out to every subscribed
// connection; it is a libdpr.Worker OnCutAdvance observer, so idle sessions
// see commit progress in push latency instead of polling the finder. The
// frame is encoded once from the pre-encoded cut and flushed to each
// subscriber immediately — an idle connection has no upcoming reply to carry
// it. A subscriber whose write fails or times out is closed and dropped, so
// one fan-out takes at most writeTimeout per wedged connection, once.
func (s *Server) PushCutAdvance(wl core.WorldLine, encoded []byte) {
	if len(encoded) == 0 {
		return
	}
	s.mu.Lock()
	if len(s.subs) == 0 {
		s.mu.Unlock()
		return
	}
	targets := make([]*conn, 0, len(s.subs))
	for c := range s.subs {
		targets = append(targets, c)
	}
	s.mu.Unlock()
	out := wire.GetBuffer()
	*out = wire.AppendCutAdvanceEncoded((*out)[:0], wl, encoded)
	for _, c := range targets {
		if c.push(*out) != nil {
			c.nc.Close()
			s.unsubscribe(c)
		}
	}
	wire.PutBuffer(out)
}

// push writes and flushes one cut-advance payload.
func (c *conn) push(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := wire.WriteFrame(c.bw, wire.FrameCutAdvance, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}
