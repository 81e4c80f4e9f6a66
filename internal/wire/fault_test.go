package wire

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// startEcho runs a TCP echo server and returns its address.
func startEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	return ln.Addr().String()
}

func roundTrip(t *testing.T, conn net.Conn, msg string) (string, error) {
	t.Helper()
	if _, err := conn.Write([]byte(msg)); err != nil {
		return "", err
	}
	buf := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func TestFaultProxyForwards(t *testing.T) {
	p, err := NewFaultProxy(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := roundTrip(t, conn, "hello")
	if err != nil || got != "hello" {
		t.Fatalf("round trip: %q, %v", got, err)
	}
}

func TestFaultProxyDelay(t *testing.T) {
	p, err := NewFaultProxy(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := roundTrip(t, conn, "warm"); err != nil {
		t.Fatal(err)
	}
	p.SetDelay(30 * time.Millisecond)
	start := time.Now()
	if _, err := roundTrip(t, conn, "slow"); err != nil {
		t.Fatal(err)
	}
	// Two taps (request + reply) at 30ms each.
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Fatalf("delay not applied: round trip took %v", el)
	}
	p.SetDelay(0)
	start = time.Now()
	if _, err := roundTrip(t, conn, "fast"); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 40*time.Millisecond {
		t.Fatalf("delay not cleared: round trip took %v", el)
	}
}

func TestFaultProxySeverAll(t *testing.T) {
	p, err := NewFaultProxy(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := roundTrip(t, conn, "pre"); err != nil {
		t.Fatal(err)
	}
	if n := p.SeverAll(); n == 0 {
		t.Fatal("no connections severed")
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("severed connection still delivers data")
	}
	// New dials must still work.
	conn2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if got, err := roundTrip(t, conn2, "post"); err != nil || got != "post" {
		t.Fatalf("post-sever round trip: %q, %v", got, err)
	}
}

func TestFaultProxyBlackhole(t *testing.T) {
	p, err := NewFaultProxy(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := roundTrip(t, conn, "pre"); err != nil {
		t.Fatal(err)
	}
	p.SetBlackhole(true)
	if _, err := conn.Write([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, _ := conn.Read(buf); n != 0 {
		t.Fatalf("blackholed traffic delivered %d bytes", n)
	}
	// A blackhole window ends with a sever; afterwards fresh connections
	// flow again.
	p.SetBlackhole(false)
	p.SeverAll()
	conn2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if got, err := roundTrip(t, conn2, "post"); err != nil || got != "post" {
		t.Fatalf("post-blackhole round trip: %q, %v", got, err)
	}
}

// TestFaultProxyBlackholeGap holds open the gap between lifting a blackhole
// and severing: a connection that lost bytes to the window must not forward
// what arrives next — on a length-prefixed stream that is a reply read as the
// answer to a request whose own reply was swallowed — but close.
func TestFaultProxyBlackholeGap(t *testing.T) {
	p, err := NewFaultProxy(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := roundTrip(t, conn, "pre"); err != nil {
		t.Fatal(err)
	}
	p.SetBlackhole(true)
	if _, err := conn.Write([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, _ := conn.Read(buf); n != 0 {
		t.Fatalf("blackholed traffic delivered %d bytes", n)
	}
	p.SetBlackhole(false) // and no SeverAll
	if _, err := conn.Write([]byte("next")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if n != 0 {
		t.Fatalf("a connection that lost bytes forwarded %q after the window", buf[:n])
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("a connection that lost bytes stayed open after the window: %v", err)
	}
}

func TestFaultProxySetBackend(t *testing.T) {
	a := startEcho(t)
	p, err := NewFaultProxy("127.0.0.1:1") // dead backend
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Dials against a dead backend are severed immediately.
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("dead-backend connection delivered data")
	}
	conn.Close()
	// Repoint at a live backend (worker restarted on a new port).
	p.SetBackend(a)
	conn2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if got, err := roundTrip(t, conn2, "alive"); err != nil || got != "alive" {
		t.Fatalf("post-SetBackend round trip: %q, %v", got, err)
	}
}
