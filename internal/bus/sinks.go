package bus

import (
	"fmt"
	"io"
	"os"
	"sync"

	"nrscope/internal/telemetry"
)

// JSONLSink writes record batches as JSON lines — the bus-managed form
// of the paper's Fig. 4 log file. Backed by a file (NewJSONLFileSink)
// it rotates on size: when the current file exceeds maxBytes after a
// batch, it is renamed to <path>.1, <path>.2, ... and a fresh <path> is
// opened, so a long-lived service never grows one unbounded log.
type JSONLSink struct {
	mu      sync.Mutex
	w       io.Writer
	buf     []byte   // the batch being written, reused
	file    *os.File // nil when wrapping a plain io.Writer
	size    int64    // bytes written to the current file
	path    string
	maxSize int64
	seq     int
	count   int64
	closed  bool
}

// NewJSONLSink wraps an io.Writer in a JSONL batch sink (no rotation).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// NewJSONLFileSink creates (truncating) path and rotates it whenever it
// exceeds maxBytes; maxBytes <= 0 disables rotation.
func NewJSONLFileSink(path string, maxBytes int64) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("bus: jsonl sink: %w", err)
	}
	s := NewJSONLSink(f)
	s.file = f
	s.path = path
	s.maxSize = maxBytes
	return s, nil
}

// WriteBatch implements Sink: encode the whole batch, write it in one
// call, maybe rotate. A record that does not encode fails the batch
// before any of it is written, so a retry cannot duplicate lines.
func (s *JSONLSink) WriteBatch(recs []telemetry.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("bus: jsonl sink closed")
	}
	buf, err := appendLines(s.buf[:0], recs, "", "\n")
	s.buf = buf
	if err != nil {
		return fmt.Errorf("bus: jsonl sink: %w", err)
	}
	n, err := s.w.Write(buf)
	s.size += int64(n)
	if err != nil {
		return fmt.Errorf("bus: jsonl sink: %w", err)
	}
	s.count += int64(len(recs))
	if s.file != nil && s.maxSize > 0 && s.size >= s.maxSize {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// appendLines appends each record's JSON encoding to dst between
// prefix and suffix.
func appendLines(dst []byte, recs []telemetry.Record, prefix, suffix string) ([]byte, error) {
	var err error
	for i := range recs {
		dst = append(dst, prefix...)
		if dst, err = telemetry.AppendJSON(dst, &recs[i]); err != nil {
			return dst, err
		}
		dst = append(dst, suffix...)
	}
	return dst, nil
}

// rotateLocked closes the current file, shelves it as <path>.<seq>, and
// starts a fresh <path>.
func (s *JSONLSink) rotateLocked() error {
	if err := s.file.Close(); err != nil {
		return fmt.Errorf("bus: jsonl rotate: %w", err)
	}
	s.seq++
	if err := os.Rename(s.path, fmt.Sprintf("%s.%d", s.path, s.seq)); err != nil {
		return fmt.Errorf("bus: jsonl rotate: %w", err)
	}
	f, err := os.Create(s.path)
	if err != nil {
		return fmt.Errorf("bus: jsonl rotate: %w", err)
	}
	s.file, s.w, s.size = f, f, 0
	return nil
}

// Count reports how many records were written across all generations.
func (s *JSONLSink) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Close closes the file of a file-backed sink. Each batch was written
// whole, so there is nothing to flush.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.file != nil {
		return s.file.Close()
	}
	return nil
}
