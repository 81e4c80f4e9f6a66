package storage

import (
	"fmt"
	"sync"
)

// SinkDevice models a device's write latency without retaining data: writes
// complete after the profile's delay and are discarded; reads fail. It is
// the benchmark harness's device of choice for throughput experiments,
// where retaining gigabytes of flushed log in a MemDevice would distort
// memory behaviour. Blob sizes are tracked so checkpoint metadata probes
// still work. Never use it where recovery must re-read data (MemDevice or
// FileDevice there).
type SinkDevice struct {
	name string
	completer

	mu    sync.Mutex
	sizes map[string]int64
}

// NewSink creates a data-discarding device with the given latency profile.
func NewSink(name string, profile LatencyProfile) *SinkDevice {
	return &SinkDevice{name: name, completer: completer{profile: profile}, sizes: make(map[string]int64)}
}

// Name implements Device.
func (d *SinkDevice) Name() string { return "sink:" + d.name }

// WriteAsync implements Device: delay, then discard. Like a MemDevice's, the
// blob's size grows when the write completes.
func (d *SinkDevice) WriteAsync(blob string, offset int64, data []byte, done func(error)) {
	end := offset + int64(len(data))
	d.complete(len(data), func() error {
		d.mu.Lock()
		if end > d.sizes[blob] {
			d.sizes[blob] = end
		}
		d.mu.Unlock()
		return nil
	}, done)
}

// Read implements Device; sinks cannot be read back.
func (d *SinkDevice) Read(blob string, offset int64, size int) ([]byte, error) {
	return nil, fmt.Errorf("%w: %s (sink device discards data)", ErrBlobNotFound, blob)
}

// BlobSize implements Device.
func (d *SinkDevice) BlobSize(blob string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sizes[blob]
}

// Delete implements Device.
func (d *SinkDevice) Delete(blob string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.sizes, blob)
	return nil
}

var _ Device = (*SinkDevice)(nil)
