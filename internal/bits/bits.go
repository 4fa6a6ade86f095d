// Package bits provides the bit-level primitives shared by every layer of
// the 5G processing chain: MSB-first bit readers and writers, the 3GPP CRC
// polynomials with RNTI scrambling, and the length-31 Gold sequence
// generator from TS 38.211 §5.2.1 used for scrambling and DMRS.
//
// Throughout the package a "bit slice" is a []uint8 holding one bit per
// element (values 0 or 1). This unpacked representation trades memory for
// simplicity and mirrors how the coding chain (CRC attachment, polar
// encoding, rate matching, interleaving) is specified in TS 38.212.
package bits

import "fmt"

// Writer assembles a bit string MSB-first. The zero value is ready to use.
type Writer struct {
	bits []uint8
}

// NewWriter returns a Writer with capacity for n bits preallocated.
func NewWriter(n int) *Writer {
	return &Writer{bits: make([]uint8, 0, n)}
}

// WriteBit appends a single bit (any non-zero b is written as 1).
func (w *Writer) WriteBit(b uint8) {
	if b != 0 {
		b = 1
	}
	w.bits = append(w.bits, b)
}

// WriteUint appends the low n bits of v, most-significant bit first.
// It panics if n is outside [0, 64].
func (w *Writer) WriteUint(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bits: WriteUint width %d out of range", n))
	}
	for i := n - 1; i >= 0; i-- {
		w.bits = append(w.bits, uint8(v>>uint(i))&1)
	}
}

// WriteBool appends 1 for true, 0 for false.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.bits = append(w.bits, 1)
	} else {
		w.bits = append(w.bits, 0)
	}
}

// Len reports the number of bits written so far.
func (w *Writer) Len() int { return len(w.bits) }

// Bits returns the accumulated bit slice. The returned slice aliases the
// writer's buffer; callers that keep writing must copy it first.
func (w *Writer) Bits() []uint8 { return w.bits }

// Reset truncates the writer to zero bits, retaining capacity.
func (w *Writer) Reset() { w.bits = w.bits[:0] }

// Reader consumes a bit string MSB-first.
type Reader struct {
	bits []uint8
	pos  int
	err  error
}

// NewReader returns a Reader over the given bit slice.
func NewReader(b []uint8) *Reader {
	return &Reader{bits: b}
}

// ReadBit consumes one bit. After the first out-of-range read the reader
// is sticky-failed: Err reports the failure and all reads return zero.
func (r *Reader) ReadBit() uint8 {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.bits) {
		r.err = fmt.Errorf("bits: read past end (len %d)", len(r.bits))
		return 0
	}
	b := r.bits[r.pos]
	r.pos++
	return b
}

// ReadUint consumes n bits and returns them as an unsigned integer,
// MSB-first. It panics if n is outside [0, 64].
func (r *Reader) ReadUint(n int) uint64 {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bits: ReadUint width %d out of range", n))
	}
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<1 | uint64(r.ReadBit())
	}
	return v
}

// ReadBool consumes one bit and returns whether it is set.
func (r *Reader) ReadBool() bool { return r.ReadBit() == 1 }

// Err returns the sticky read error, if any.
func (r *Reader) Err() error { return r.err }

// Pack converts an unpacked bit slice (MSB-first) into bytes. The final
// byte is zero-padded on the right if len(b) is not a multiple of 8.
func Pack(b []uint8) []byte {
	return AppendPacked(make([]byte, 0, (len(b)+7)/8), b)
}

// AppendPacked appends the packed form of b (MSB-first, final byte
// right-padded with zeros) to dst and returns the extended slice, so
// hot paths can pack into reused buffers without allocating.
func AppendPacked(dst []byte, b []uint8) []byte {
	for len(b) > 0 {
		n := len(b)
		if n > 8 {
			n = 8
		}
		var cur byte
		for i, bit := range b[:n] {
			if bit != 0 {
				cur |= 0x80 >> uint(i)
			}
		}
		dst = append(dst, cur)
		b = b[n:]
	}
	return dst
}

// Unpack converts bytes into an unpacked bit slice of exactly n bits,
// MSB-first. It panics if n exceeds 8*len(data).
func Unpack(data []byte, n int) []uint8 {
	if n > 8*len(data) {
		panic(fmt.Sprintf("bits: Unpack %d bits from %d bytes", n, len(data)))
	}
	out := make([]uint8, n)
	for i := 0; i < n; i++ {
		out[i] = (data[i/8] >> uint(7-i%8)) & 1
	}
	return out
}

// ToUint interprets a bit slice MSB-first as an unsigned integer.
// It panics if the slice is longer than 64 bits.
func ToUint(b []uint8) uint64 {
	if len(b) > 64 {
		panic("bits: ToUint slice longer than 64 bits")
	}
	var v uint64
	for _, bit := range b {
		v = v<<1 | uint64(bit)
	}
	return v
}

// FromUint renders the low n bits of v as a bit slice, MSB-first.
func FromUint(v uint64, n int) []uint8 {
	out := make([]uint8, n)
	for i := 0; i < n; i++ {
		out[i] = uint8(v>>uint(n-1-i)) & 1
	}
	return out
}
