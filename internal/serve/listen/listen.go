// Package listen is the one accept loop of the serving stack: a listener, the
// connections it accepted, and a Stop that closes all of them and joins every
// goroutine. It imports only the standard library so that both the worker
// frame loop (package serve) and the metadata RPC service can sit on it.
package listen

import (
	"errors"
	"net"
	"sync"
	"time"
)

// Accept backoff after a failed Accept (EMFILE, ECONNABORTED, ...): net/http's
// schedule. A failing listener costs a few wake-ups per second, not a core.
const (
	minAcceptBackoff = 5 * time.Millisecond
	maxAcceptBackoff = time.Second
)

// Listener owns a net.Listener and every connection accepted from it.
type Listener struct {
	ln net.Listener

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// conns holds the live connections so Stop can unblock their handlers'
	// reads. The stop check and the insert share mu, so a connection is either
	// in the map when Stop drains it or sees the closed stop channel.
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Listen binds a TCP address. Nothing is accepted until Serve.
func Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return On(ln), nil
}

// On wraps an already bound listener, which the Listener now owns.
func On(ln net.Listener) *Listener {
	return &Listener{
		ln:    ln,
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// Addr returns the bound address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Serve starts the accept loop: each accepted connection runs handle on its
// own goroutine and is closed when handle returns. Call it at most once.
func (l *Listener) Serve(handle func(net.Conn)) {
	l.wg.Add(1)
	go l.acceptLoop(handle)
}

// Stop closes the listener and every live connection, then waits for the
// accept loop and all handlers to return. Safe to call more than once.
func (l *Listener) Stop() {
	l.stopOnce.Do(func() {
		close(l.stop)
		l.ln.Close()
		l.mu.Lock()
		for c := range l.conns {
			c.Close()
		}
		l.mu.Unlock()
	})
	l.wg.Wait()
}

func (l *Listener) acceptLoop(handle func(net.Conn)) {
	defer l.wg.Done()
	var backoff time.Duration
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			// A closed listener never recovers; anything else may.
			if errors.Is(err, net.ErrClosed) {
				return
			}
			backoff = min(max(2*backoff, minAcceptBackoff), maxAcceptBackoff)
			t := time.NewTimer(backoff)
			select {
			case <-l.stop:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		backoff = 0
		if !l.track(conn) {
			conn.Close()
			return
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer l.untrack(conn)
			defer conn.Close()
			handle(conn)
		}()
	}
}

// track registers conn for Stop to close; false once stopping.
func (l *Listener) track(conn net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.stop:
		return false
	default:
	}
	l.conns[conn] = struct{}{}
	return true
}

func (l *Listener) untrack(conn net.Conn) {
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
}
