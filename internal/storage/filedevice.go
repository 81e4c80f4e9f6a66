package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// FileDevice is a Device backed by real files in a directory, one file per
// blob. It provides true crash durability (fsync on every write completion)
// and is used by the standalone server binaries; benchmarks favour MemDevice
// for deterministic latency models.
type FileDevice struct {
	dir       string
	completer // no modeled delay: the disk supplies its own

	mu    sync.Mutex
	files map[string]*os.File
}

// NewFileDevice creates (if needed) dir and returns a device over it.
func NewFileDevice(dir string) (*FileDevice, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	return &FileDevice{dir: dir, files: make(map[string]*os.File)}, nil
}

// Name implements Device.
func (d *FileDevice) Name() string { return "file:" + d.dir }

// sanitize maps a blob name to a safe file name.
func sanitize(blob string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, blob)
}

func (d *FileDevice) fileLocked(blob string, create bool) (*os.File, error) {
	if f, ok := d.files[blob]; ok {
		return f, nil
	}
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
	}
	f, err := os.OpenFile(filepath.Join(d.dir, sanitize(blob)), flags, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrBlobNotFound, blob)
		}
		return nil, err
	}
	d.files[blob] = f
	return f, nil
}

// WriteAsync implements Device: the write and fsync run on a background
// goroutine, after which done fires.
func (d *FileDevice) WriteAsync(blob string, offset int64, data []byte, done func(error)) {
	d.complete(len(data), func() error {
		d.mu.Lock()
		f, err := d.fileLocked(blob, true)
		d.mu.Unlock()
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(data, offset); err != nil {
			return err
		}
		return f.Sync()
	}, done)
}

// Read implements Device.
func (d *FileDevice) Read(blob string, offset int64, size int) ([]byte, error) {
	d.mu.Lock()
	f, err := d.fileLocked(blob, false)
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	n, err := f.ReadAt(out, offset)
	if err != nil && n < size {
		return nil, fmt.Errorf("%w: %s[%d:+%d]: %v", ErrOutOfRange, blob, offset, size, err)
	}
	return out, nil
}

// BlobSize implements Device.
func (d *FileDevice) BlobSize(blob string) int64 {
	d.mu.Lock()
	f, err := d.fileLocked(blob, false)
	d.mu.Unlock()
	if err != nil {
		return 0
	}
	st, err := f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// Delete implements Device.
func (d *FileDevice) Delete(blob string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.files[blob]; ok {
		f.Close()
		delete(d.files, blob)
	}
	err := os.Remove(filepath.Join(d.dir, sanitize(blob)))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Close waits for in-flight writes and closes all files.
func (d *FileDevice) Close() error {
	_ = d.completer.Close() // never fails
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, f := range d.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.files = make(map[string]*os.File)
	return first
}

var _ Device = (*FileDevice)(nil)
var _ Device = (*MemDevice)(nil)
