// Package noallocreject holds the shapes TestRejectBlock classifies: the
// blocks TestNoAllocPinsCover may leave unpinned as reject paths, and the ones
// it may not.
package noallocreject

import (
	"errors"
	"fmt"
	"io"
	"strconv"
)

var errEmpty = errors.New("empty")

// Write's only block is its top-level one: a success path that returns err.
func Write(w io.Writer, p []byte) error {
	_, err := w.Write(p)
	return err
}

// Check rejects in its if branch.
func Check(p []byte) error {
	if len(p) == 0 {
		return errEmpty
	}
	return nil
}

// Parse rejects with the error it was handed.
func Parse(p []byte) (int, error) {
	n, err := strconv.Atoi(string(p))
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Kind's first case succeeds, its default rejects.
func Kind(b byte) error {
	switch b {
	case 0:
		return nil
	default:
		return fmt.Errorf("kind %d", b)
	}
}

// Drain's loop body returns err on success.
func Drain(w io.Writer, ps [][]byte) error {
	for _, p := range ps {
		_, err := w.Write(p)
		return err
	}
	return nil
}
