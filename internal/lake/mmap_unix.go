//go:build unix

package lake

import (
	"errors"
	"os"
	"syscall"
)

var errUnmapped = errors.New("lake: block lies outside the segment's mapping")

// mapAtLeast makes the segment's read-only shared mapping cover at
// least its first n bytes. A shorter mapping is replaced by one of
// max(n, twice its length), so a growing segment is remapped a
// logarithmic number of times. The caller holds l.mu's write lock, or
// owns the segment alone (Open, or the writer before it publishes a
// ref into the segment): no reader can hold a slice of the old mapping.
func (s *segment) mapAtLeast(n int64) error {
	if n <= int64(len(s.data)) {
		return nil
	}
	page := int64(os.Getpagesize())
	n = (max(n, 2*int64(len(s.data))) + page - 1) / page * page
	b, err := syscall.Mmap(int(s.f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	err = s.unmap()
	s.data = b
	return err
}

// unmap removes the segment's mapping. Same locking as mapAtLeast.
func (s *segment) unmap() error {
	if s.data == nil {
		return nil
	}
	err := syscall.Munmap(s.data)
	s.data = nil
	return err
}

// frame returns the n bytes at off, sliced from the mapping. Reading
// them can fault if the file was truncated underneath: only a block
// check or decode running under recoverFault may touch them.
func (s *segment) frame(off int64, n int) ([]byte, error) {
	end := off + int64(n)
	if off < 0 || end > int64(len(s.data)) {
		return nil, errUnmapped
	}
	return s.data[off:end:end], nil
}
