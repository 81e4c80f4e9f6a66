package wire

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// FaultProxy is a fault-injecting TCP forwarder interposed between clients
// and a worker: clients dial the proxy, the proxy dials the backend, and
// every byte flows through controllable fault taps. It is the network-fault
// substrate of the chaos harness (internal/chaos): connection severs,
// added latency, and traffic drops are injected here without touching the
// endpoints, the same way the paper's evaluation injects failures from
// outside the serving processes (§7.4).
//
// Controls:
//
//   - SetDelay(d): every forwarded chunk waits d before delivery, in each
//     direction (so one-way latency is d, round-trip 2d).
//   - SetBlackhole(on): forwarded bytes are read and discarded. Resuming a
//     length-prefixed stream that lost bytes would desynchronize framing (a
//     later reply read as the answer to the request whose own reply was
//     swallowed), so a direction that has dropped bytes never forwards again:
//     the first bytes to arrive after the window close the pair. The endpoints
//     observe a dead connection that swallowed traffic, the classic lost-
//     request/lost-reply fault; SeverAll delivers it without waiting for them.
//   - SeverAll(): closes every live proxied connection pair. New dials
//     continue to be accepted and forwarded.
//
// All controls are safe for concurrent use and apply to existing as well as
// future connections.
type FaultProxy struct {
	ln net.Listener

	// backend is the current forwarding target; settable so a restarted
	// worker (new port) keeps its proxy — clients cache the proxy address
	// across worker restarts, as they would a stable service address.
	backend atomic.Pointer[string]

	delayNs   atomic.Int64
	blackhole atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewFaultProxy starts a proxy on 127.0.0.1:0 forwarding to backend.
func NewFaultProxy(backend string) (*FaultProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &FaultProxy{
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
	}
	p.backend.Store(&backend)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — the address clients should dial.
func (p *FaultProxy) Addr() string { return p.ln.Addr().String() }

// SetBackend changes the forwarding target for future connections (a worker
// restarted on a new port). Existing connections keep their old backend;
// sever them if they must not outlive the old target.
func (p *FaultProxy) SetBackend(addr string) { p.backend.Store(&addr) }

// SetDelay sets the per-direction forwarding delay (0 disables).
func (p *FaultProxy) SetDelay(d time.Duration) { p.delayNs.Store(int64(d)) }

// Delay returns the current per-direction forwarding delay.
func (p *FaultProxy) Delay() time.Duration { return time.Duration(p.delayNs.Load()) }

// SetBlackhole toggles traffic discarding. A connection that lost bytes to
// the window does not outlive it (see the type comment).
func (p *FaultProxy) SetBlackhole(on bool) { p.blackhole.Store(on) }

// SeverAll closes every live proxied connection and reports how many
// connections (both sides counted) were closed.
func (p *FaultProxy) SeverAll() int {
	p.mu.Lock()
	n := len(p.conns)
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	return n
}

// Close stops the proxy and severs everything.
func (p *FaultProxy) Close() {
	p.stopOnce.Do(func() {
		close(p.stop)
		p.ln.Close()
	})
	p.SeverAll()
	p.wg.Wait()
}

// track registers a connection for SeverAll; refuses when closing.
func (p *FaultProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.stop:
		return false
	default:
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *FaultProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *FaultProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.stop:
				return
			default:
				continue
			}
		}
		backend, err := net.Dial("tcp", *p.backend.Load())
		if err != nil {
			// Backend down (e.g. killed worker): the client sees an
			// immediate sever, exactly what dialing a dead worker yields.
			client.Close()
			continue
		}
		if !p.track(client) || !p.track(backend) {
			client.Close()
			backend.Close()
			return
		}
		p.wg.Add(2)
		go p.pipe(backend, client)
		go p.pipe(client, backend)
	}
}

// pipe forwards src→dst through the fault taps, closing both ends when
// either side fails (a half-dead proxied connection is indistinguishable
// from a network partition and would hang the endpoints' framed readers).
func (p *FaultProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	defer p.untrack(src)
	defer src.Close()
	defer dst.Close()
	buf := make([]byte, 32<<10)
	dropped := false // this direction has lost bytes to a blackhole
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if d := time.Duration(p.delayNs.Load()); d > 0 {
				select {
				case <-time.After(d):
				case <-p.stop:
					return
				}
			}
			if p.blackhole.Load() {
				dropped = true
			} else if dropped {
				return
			} else if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
