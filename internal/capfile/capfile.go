// Package capfile persists radio captures to disk and replays them, so
// NR-Scope can post-process recordings offline — the "on-demand slot
// data processing" the paper's §4 worker pool enables when real-time
// output is not needed, and the raw-material of the §7 post-processing
// library.
//
// Format (little-endian):
//
//	magic "NRSC" | u16 version | u16 cellID | u8 mu | u16 numPRB
//	per slot: u8 tag | i64 slotIdx | u16 sfn | u16 slot | f64 n0 | f64 snr
//	          tag&1 == 1: followed by width*14 complex64 samples
//
// Samples are stored as complex64 — half the in-memory size, far more
// precision than any RF front end delivers.
package capfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"nrscope/internal/phy"
	"nrscope/internal/radio"
)

const (
	magic   = "NRSC"
	version = 1
	// maxPRB is the widest carrier a stream may declare (TS 38.101: 275
	// PRBs), which bounds what one Next allocates.
	maxPRB = 275
)

// Header identifies a capture stream.
type Header struct {
	CellID uint16
	Mu     phy.Numerology
	NumPRB int
}

// Writer streams captures to an io.Writer.
type Writer struct {
	bw     *bufio.Writer
	hdr    Header
	slots  int
	closed bool
}

// NewWriter writes the header and returns a capture writer.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	if !hdr.Mu.Valid() {
		return nil, fmt.Errorf("capfile: invalid numerology")
	}
	if hdr.NumPRB < 1 || hdr.NumPRB > maxPRB {
		return nil, fmt.Errorf("capfile: numPRB %d", hdr.NumPRB)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	scratch := make([]byte, 8)
	binary.LittleEndian.PutUint16(scratch, version)
	binary.LittleEndian.PutUint16(scratch[2:], hdr.CellID)
	scratch[4] = byte(hdr.Mu)
	binary.LittleEndian.PutUint16(scratch[5:], uint16(hdr.NumPRB))
	if _, err := bw.Write(scratch[:7]); err != nil {
		return nil, err
	}
	return &Writer{bw: bw, hdr: hdr}, nil
}

// Append records one capture. Nil grids (uplink-only slots) are stored
// as grid-less markers so replay preserves slot timing.
func (w *Writer) Append(cap *radio.Capture) error {
	if w.closed {
		return fmt.Errorf("capfile: writer closed")
	}
	var tag byte
	if cap.Grid != nil {
		if cap.Grid.NumPRB != w.hdr.NumPRB {
			return fmt.Errorf("capfile: grid width %d != header %d", cap.Grid.NumPRB, w.hdr.NumPRB)
		}
		tag = 1
	}
	var fixed [1 + 8 + 2 + 2 + 8 + 8]byte
	fixed[0] = tag
	binary.LittleEndian.PutUint64(fixed[1:], uint64(int64(cap.SlotIdx)))
	binary.LittleEndian.PutUint16(fixed[9:], uint16(cap.Ref.SFN))
	binary.LittleEndian.PutUint16(fixed[11:], uint16(cap.Ref.Slot))
	binary.LittleEndian.PutUint64(fixed[13:], math.Float64bits(cap.N0))
	binary.LittleEndian.PutUint64(fixed[21:], math.Float64bits(cap.SNRdB))
	if _, err := w.bw.Write(fixed[:]); err != nil {
		return err
	}
	if cap.Grid != nil {
		var b [8]byte
		for _, s := range cap.Grid.Samples() {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(float32(real(s))))
			binary.LittleEndian.PutUint32(b[4:], math.Float32bits(float32(imag(s))))
			if _, err := w.bw.Write(b[:]); err != nil {
				return err
			}
		}
	}
	w.slots++
	return nil
}

// Slots reports how many captures were appended.
func (w *Writer) Slots() int { return w.slots }

// Close flushes buffered data. The underlying writer is not closed.
func (w *Writer) Close() error {
	w.closed = true
	return w.bw.Flush()
}

// Reader replays a capture stream.
type Reader struct {
	br  *bufio.Reader
	hdr Header
}

// NewReader validates the header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, 4+7)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("capfile: %w", err)
	}
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("capfile: bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:]); v != version {
		return nil, fmt.Errorf("capfile: unsupported version %d", v)
	}
	hdr := Header{
		CellID: binary.LittleEndian.Uint16(head[6:]),
		Mu:     phy.Numerology(head[8]),
		NumPRB: int(binary.LittleEndian.Uint16(head[9:])),
	}
	if !hdr.Mu.Valid() || hdr.NumPRB < 1 || hdr.NumPRB > maxPRB {
		return nil, fmt.Errorf("capfile: corrupt header %+v", hdr)
	}
	return &Reader{br: br, hdr: hdr}, nil
}

// Header returns the stream identity.
func (r *Reader) Header() Header { return r.hdr }

// Next reads one capture; io.EOF marks the clean end of the stream.
func (r *Reader) Next() (*radio.Capture, error) {
	var fixed [1 + 8 + 2 + 2 + 8 + 8]byte
	if _, err := io.ReadFull(r.br, fixed[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("capfile: truncated record: %w", err)
	}
	cap := &radio.Capture{
		SlotIdx: int(int64(binary.LittleEndian.Uint64(fixed[1:]))),
		Ref: phy.SlotRef{
			SFN:  int(binary.LittleEndian.Uint16(fixed[9:])),
			Slot: int(binary.LittleEndian.Uint16(fixed[11:])),
		},
		N0:    math.Float64frombits(binary.LittleEndian.Uint64(fixed[13:])),
		SNRdB: math.Float64frombits(binary.LittleEndian.Uint64(fixed[21:])),
	}
	if fixed[0]&1 == 1 {
		g := phy.NewGrid(r.hdr.NumPRB)
		s := g.Samples()
		buf := make([]byte, 8*len(s))
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return nil, fmt.Errorf("capfile: truncated grid: %w", err)
		}
		for i := range s {
			re := math.Float32frombits(binary.LittleEndian.Uint32(buf[8*i:]))
			im := math.Float32frombits(binary.LittleEndian.Uint32(buf[8*i+4:]))
			s[i] = complex(float64(re), float64(im))
		}
		cap.Grid = g
	}
	return cap, nil
}
