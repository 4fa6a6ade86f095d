// Package modulation provides the constellation mappers and soft
// demappers for the modulation orders used on 5G physical channels:
// QPSK (PDCCH, PBCH), and 16/64/256-QAM (PDSCH).
//
// Symbols are complex128 with unit average energy. The demapper produces
// max-log LLRs (positive = bit 0 likelier) for an AWGN channel with noise
// variance sigma^2 per complex dimension pair (i.e. N0).
package modulation

import (
	"fmt"
	"math"
)

// Scheme identifies a modulation order.
type Scheme int

// Modulation schemes, with their 3GPP Qm values (bits per symbol).
const (
	QPSK   Scheme = 2
	QAM16  Scheme = 4
	QAM64  Scheme = 6
	QAM256 Scheme = 8
)

// BitsPerSymbol returns Qm.
func (s Scheme) BitsPerSymbol() int { return int(s) }

// String implements fmt.Stringer using the 3GPP spelling.
func (s Scheme) String() string {
	switch s {
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	case QAM256:
		return "256QAM"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// FromQm maps a Qm value (2, 4, 6, 8) to a Scheme.
func FromQm(qm int) (Scheme, error) {
	switch qm {
	case 2:
		return QPSK, nil
	case 4:
		return QAM16, nil
	case 6:
		return QAM64, nil
	case 8:
		return QAM256, nil
	default:
		return 0, fmt.Errorf("modulation: unsupported Qm %d", qm)
	}
}

// pamBits returns the bits per axis: TS 38.211 §5.1 builds each axis as
// a Gray-coded sqrt(M)-PAM driven by half the bits of the symbol.
func (s Scheme) pamBits() int { return int(s) / 2 }

// norm returns the amplitude normalisation so E[|x|^2] = 1.
func (s Scheme) norm() float64 {
	switch s {
	case QPSK:
		return 1 / math.Sqrt2
	case QAM16:
		return 1 / math.Sqrt(10)
	case QAM64:
		return 1 / math.Sqrt(42)
	case QAM256:
		return 1 / math.Sqrt(170)
	default:
		panic("modulation: unknown scheme")
	}
}

// grayPAM maps n bits (MSB-first) to an unnormalised PAM level following
// the 38.211 convention: bit 0 selects the sign (0 -> positive), later
// bits refine amplitude so that Gray adjacency holds.
func grayPAM(bits []uint8) float64 {
	// 38.211 builds the level as a nested expression, e.g. 64QAM I-axis:
	// (1-2b0)[4-(1-2b2)[2-(1-2b4)]]. Generalise the nesting.
	n := len(bits)
	v := 1.0
	for i := n - 1; i >= 1; i-- {
		v = float64(int(1)<<uint(n-i)) - sgn(bits[i])*v
	}
	return sgn(bits[0]) * v
}

func sgn(b uint8) float64 {
	if b == 0 {
		return 1
	}
	return -1
}

// Map modulates a bit slice into symbols. len(bits) must be a multiple of
// BitsPerSymbol.
func Map(s Scheme, bitstream []uint8) []complex128 {
	qm := s.BitsPerSymbol()
	if len(bitstream)%qm != 0 {
		panic(fmt.Sprintf("modulation: %d bits not a multiple of Qm %d", len(bitstream), qm))
	}
	half := s.pamBits()
	norm := s.norm()
	out := make([]complex128, len(bitstream)/qm)
	iBits := make([]uint8, half)
	qBits := make([]uint8, half)
	for k := range out {
		chunk := bitstream[k*qm : (k+1)*qm]
		// 38.211 interleaves: even-indexed bits drive I, odd-indexed Q.
		for j := 0; j < half; j++ {
			iBits[j] = chunk[2*j]
			qBits[j] = chunk[2*j+1]
		}
		out[k] = complex(grayPAM(iBits)*norm, grayPAM(qBits)*norm)
	}
	return out
}

// DemapInto produces max-log LLRs for each bit of each symbol under AWGN
// with noise variance n0 (total, both dimensions); positive LLR favours
// bit 0. It writes into dst (reused when its capacity covers
// len(symbols)·Qm, so per-candidate demapping on the blind-decode hot
// path is allocation free; nil allocates) and returns the LLR slice.
//
// QPSK is the closed form 4·a·y/n0; the QAM schemes run the per-axis
// closed-form kernels in kernels.go. n0 is clamped to MinN0 (NaN
// included) and every LLR is saturated into [-MaxLLR, MaxLLR] with
// non-finite values mapped to 0, so every output is finite and bounded
// whatever the input symbols: downstream branch-metric sums and the
// polar decoder's input contract rely on that.
func DemapInto(dst []float64, s Scheme, symbols []complex128, n0 float64) []float64 {
	if !(n0 >= MinN0) { // the negated form also catches NaN
		n0 = MinN0
	}
	qm := s.BitsPerSymbol()
	if cap(dst) < len(symbols)*qm {
		dst = make([]float64, len(symbols)*qm)
	}
	dst = dst[:len(symbols)*qm]
	switch s {
	case QPSK:
		scale := QPSKScale(n0)
		for k, sym := range symbols {
			dst[2*k], dst[2*k+1] = QPSKLLR(sym, scale)
		}
	case QAM16:
		for k, sym := range symbols {
			o := dst[4*k : 4*k+4 : 4*k+4]
			demapAxis16(o, 0, real(sym), n0)
			demapAxis16(o, 1, imag(sym), n0)
		}
	case QAM64:
		for k, sym := range symbols {
			o := dst[6*k : 6*k+6 : 6*k+6]
			demapAxis64(o, 0, real(sym), n0)
			demapAxis64(o, 1, imag(sym), n0)
		}
	case QAM256:
		for k, sym := range symbols {
			o := dst[8*k : 8*k+8 : 8*k+8]
			demapAxis256(o, 0, real(sym), n0)
			demapAxis256(o, 1, imag(sym), n0)
		}
	default:
		panic("modulation: unknown scheme")
	}
	return dst
}

// qpskAmp is the per-axis QPSK amplitude (1/√2 under unit energy).
var qpskAmp = QPSK.norm()

// QPSKScale is the factor QPSKLLR takes for noise variance n0: with one
// level per sign the max-log LLR collapses to 4·a·y/n0, and n0 is
// clamped to MinN0 (NaN included) as DemapInto clamps it.
func QPSKScale(n0 float64) float64 {
	if !(n0 >= MinN0) {
		n0 = MinN0
	}
	return 4 * qpskAmp / n0
}

// QPSKLLR returns the LLRs of the two bits of one QPSK symbol, I then Q,
// under scale = QPSKScale(n0): the values DemapInto writes for it,
// saturated into [-MaxLLR, MaxLLR] with NaN mapped to 0. Fused front
// ends (PUCCH, PDCCH) call it per symbol to write each LLR straight to
// its decoder-input slot.
func QPSKLLR(sym complex128, scale float64) (i, q float64) {
	return saturate(scale * real(sym)), saturate(scale * imag(sym))
}
