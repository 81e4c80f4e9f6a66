package listen

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// flakyListener fails its first `fail` Accepts with a non-shutdown error
// (what EMFILE or ECONNABORTED look like to the loop), then behaves.
type flakyListener struct {
	net.Listener
	fail  int64
	calls atomic.Int64
}

func (f *flakyListener) Accept() (net.Conn, error) {
	if f.calls.Add(1) <= f.fail {
		return nil, errors.New("accept: too many open files")
	}
	return f.Listener.Accept()
}

// echo is a handler that returns each byte it reads.
func echo(c net.Conn) {
	buf := make([]byte, 1)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
		c.Write(buf)
	}
}

func stopWithin(t *testing.T, l *Listener, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		l.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("Stop did not join the accept loop and handlers")
	}
}

// TestAcceptErrorBacksOff: a failing Accept must neither spin nor kill the
// loop. Four failures cost 5+10+20+40 ms of backoff; the dial queued behind
// them is served once Accept recovers.
func TestAcceptErrorBacksOff(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: inner, fail: 4}
	l := On(fl)
	start := time.Now()
	l.Serve(echo)

	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{42}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if _, err := conn.Read(got); err != nil || got[0] != 42 {
		t.Fatalf("connection not served after the accept errors: %v %v", got, err)
	}
	if elapsed := time.Since(start); elapsed < 75*time.Millisecond {
		t.Fatalf("4 failed accepts took %v: the loop did not back off", elapsed)
	}
	// Failures, the successful accept, and at most the one parked now.
	if n := fl.calls.Load(); n > fl.fail+2 {
		t.Fatalf("%d Accept calls around %d failures: the loop spun", n, fl.fail)
	}
	stopWithin(t, l, 5*time.Second)
}

// TestStopDuringBackoff: Stop must not wait out a backoff sleep.
func TestStopDuringBackoff(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: inner, fail: 1 << 30}
	l := On(fl)
	l.Serve(echo)
	// Let the backoff grow towards its one-second ceiling.
	for fl.calls.Load() < 6 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	stopWithin(t, l, 5*time.Second)
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("Stop took %v: it waited for the backoff timer", d)
	}
	if n := fl.calls.Load(); n > 12 {
		t.Fatalf("%d Accept calls: the loop spun", n)
	}
}

// TestStopClosesIdleConnections: handlers park in reads on idle connections,
// so Stop must close every live connection or it never returns.
func TestStopClosesIdleConnections(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Serve(echo)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One round trip: the handler is live and parked in a read.
	if _, err := conn.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	stopWithin(t, l, 5*time.Second)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after Stop")
	}
	if _, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after Stop")
	}
	l.Stop() // idempotent
}
