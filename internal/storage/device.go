// Package storage provides the durable-storage substrate beneath the
// cache-stores: pluggable block devices with latency/throughput models that
// stand in for the paper's three backends (null device, local SSD, Azure
// Premium "cloud" SSD), plus checkpoint blob management.
//
// The paper's storage sensitivity results (Figure 14) depend on the relative
// duration of checkpoint I/O across backends — the null device completes
// instantly but exercises the full checkpointing code path, the local SSD
// has low latency, and the cloud SSD is 2-3x slower (matching the paper's
// observation that Premium SSD checkpoints took 2-3x longer than local SSD).
// Devices here reproduce those ratios with configurable latency injection.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dpr/internal/hrtimer"
)

// Device is an append-oriented durable device. Writes are asynchronous:
// Write returns immediately after buffering and invokes the callback when
// the data is durable (after the device's modeled latency elapses). This
// mirrors how FASTER issues checkpoint flushes without blocking operation
// processing.
type Device interface {
	// WriteAsync durably stores data under the given blob name and offset,
	// invoking done(err) when persistence completes. The data slice must not
	// be modified until done fires.
	WriteAsync(blob string, offset int64, data []byte, done func(error))
	// Read returns size bytes of blob at offset.
	Read(blob string, offset int64, size int) ([]byte, error)
	// BlobSize returns the current length of a blob, 0 if absent.
	BlobSize(blob string) int64
	// Delete removes a blob.
	Delete(blob string) error
	// Name describes the device for benchmarks ("null", "local-ssd", ...).
	Name() string
	// Close releases device resources, waiting for in-flight writes.
	Close() error
}

// ErrBlobNotFound is returned when reading an absent blob.
var ErrBlobNotFound = errors.New("storage: blob not found")

// ErrOutOfRange is returned when a read extends past the end of a blob.
var ErrOutOfRange = errors.New("storage: read out of range")

// LatencyProfile models a device's performance: a fixed per-write latency
// plus a throughput term proportional to the write size.
type LatencyProfile struct {
	// WriteLatency is the fixed latency added to every write.
	WriteLatency time.Duration
	// BytesPerSecond throttles throughput; 0 means unlimited.
	BytesPerSecond int64
}

func (p LatencyProfile) writeDelay(n int) time.Duration {
	d := p.WriteLatency
	if p.BytesPerSecond > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / p.BytesPerSecond)
	}
	return d
}

// Profiles for the three backends of §7.1. The absolute values are scaled
// for a single-machine reproduction; the ratios follow the paper (cloud
// checkpoints 2-3x slower than local).
var (
	// NullProfile completes every I/O instantaneously but still runs the
	// whole checkpoint code path — the paper's theoretical upper bound.
	NullProfile = LatencyProfile{}
	// LocalSSDProfile models a direct-attached NVMe/SSD temp disk.
	LocalSSDProfile = LatencyProfile{WriteLatency: 100 * time.Microsecond, BytesPerSecond: 2 << 30}
	// CloudSSDProfile models replicated premium cloud storage: higher fixed
	// latency and lower throughput, yielding the observed 2-3x slower
	// checkpoints.
	CloudSSDProfile = LatencyProfile{WriteLatency: 2 * time.Millisecond, BytesPerSecond: 600 << 20}
)

// errClosed is the completion of a write issued after Close.
var errClosed = errors.New("storage: device closed")

// completer is the completion path every device shares: a write's outcome is
// delivered on a goroutine that is not the caller's, after the profile's
// delay and never before it, and Close waits for those still on their way.
// The delay runs on hrtimer: the local-SSD profile's 100 µs is well below
// what a runtime timer resolves in an idle process.
type completer struct {
	profile LatencyProfile

	closeMu sync.Mutex // orders closed against wg.Add
	closed  bool
	wg      sync.WaitGroup
}

// complete schedules a write of n bytes: after the modeled delay it runs
// apply and hands done its outcome.
func (c *completer) complete(n int, apply func() error, done func(error)) {
	c.closeMu.Lock()
	closed := c.closed
	if !closed {
		c.wg.Add(1)
	}
	c.closeMu.Unlock()
	if closed {
		go done(errClosed)
		return
	}
	finish := func() {
		defer c.wg.Done()
		done(apply())
	}
	if delay := c.profile.writeDelay(n); delay > 0 {
		hrtimer.AfterFunc(delay, finish)
	} else {
		// The null device completes at once, but still not on the caller's stack.
		go finish()
	}
}

// Close refuses further writes and waits for every completion on its way.
func (c *completer) Close() error {
	c.closeMu.Lock()
	c.closed = true
	c.closeMu.Unlock()
	c.wg.Wait()
	return nil
}

// MemDevice is an in-memory Device with latency injection. It is the
// simulation substitute for real disks: contents survive Restore-style
// reopening within a process (the unit of durability in our single-machine
// reproduction) and optional latency reproduces device behaviour.
type MemDevice struct {
	name string
	completer

	mu    sync.Mutex
	blobs map[string][]byte
}

// NewMemDevice creates a device with the given name and latency profile.
func NewMemDevice(name string, profile LatencyProfile) *MemDevice {
	return &MemDevice{name: name, completer: completer{profile: profile}, blobs: make(map[string][]byte)}
}

// NewNull returns the instant-persistence device.
func NewNull() *MemDevice { return NewMemDevice("null", NullProfile) }

// NewLocalSSD returns a device with local-SSD-like latency.
func NewLocalSSD() *MemDevice { return NewMemDevice("local-ssd", LocalSSDProfile) }

// NewCloudSSD returns a device with cloud-premium-SSD-like latency.
func NewCloudSSD() *MemDevice { return NewMemDevice("cloud-ssd", CloudSSDProfile) }

// Name implements Device.
func (d *MemDevice) Name() string { return d.name }

// WriteAsync implements Device. The callback fires on a background goroutine
// after the modeled latency.
func (d *MemDevice) WriteAsync(blob string, offset int64, data []byte, done func(error)) {
	d.complete(len(data), func() error {
		d.mu.Lock()
		b := d.blobs[blob]
		end := offset + int64(len(data))
		if int64(len(b)) < end {
			if int64(cap(b)) >= end {
				b = b[:end]
			} else {
				// Grow with headroom: an append-heavy blob (the hybrid log,
				// flushed every few ms by the commit pump) would otherwise be
				// copied wholesale on every extension — quadratic in flush
				// count.
				ncap := int64(cap(b)) * 2
				if ncap < end {
					ncap = end
				}
				nb := make([]byte, end, ncap)
				copy(nb, b)
				b = nb
			}
		}
		copy(b[offset:], data)
		d.blobs[blob] = b
		d.mu.Unlock()
		return nil
	}, done)
}

// Write is a synchronous convenience wrapper around WriteAsync.
func (d *MemDevice) Write(blob string, offset int64, data []byte) error {
	ch := make(chan error, 1)
	d.WriteAsync(blob, offset, data, func(err error) { ch <- err })
	return <-ch
}

// Read implements Device.
func (d *MemDevice) Read(blob string, offset int64, size int) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.blobs[blob]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrBlobNotFound, blob)
	}
	if offset < 0 || offset+int64(size) > int64(len(b)) {
		return nil, fmt.Errorf("%w: %s[%d:+%d] of %d", ErrOutOfRange, blob, offset, size, len(b))
	}
	out := make([]byte, size)
	copy(out, b[offset:])
	return out, nil
}

// BlobSize implements Device.
func (d *MemDevice) BlobSize(blob string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.blobs[blob]))
}

// Delete implements Device.
func (d *MemDevice) Delete(blob string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.blobs, blob)
	return nil
}

// Blobs lists blob names (for tests and recovery enumeration).
func (d *MemDevice) Blobs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.blobs))
	for k := range d.blobs {
		out = append(out, k)
	}
	return out
}
