//go:build !unix

package lake

// Without mmap a segment keeps no mapping and frame reads each block
// with ReadAt.

func (s *segment) mapAtLeast(int64) error { return nil }

func (s *segment) unmap() error { return nil }

// frame reads the n bytes at off into a fresh buffer.
func (s *segment) frame(off int64, n int) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}
