package bits

import (
	"math"
	mathbits "math/bits"
)

// Gold sequence generator from TS 38.211 §5.2.1. Pseudo-random sequences
// in NR (scrambling, DMRS) are length-31 Gold sequences:
//
//	c(n)      = (x1(n+Nc) + x2(n+Nc)) mod 2, Nc = 1600
//	x1(n+31)  = (x1(n+3) + x1(n)) mod 2
//	x2(n+31)  = (x2(n+3) + x2(n+2) + x2(n+1) + x2(n)) mod 2
//
// x1 is initialised with x1(0)=1, x1(n)=0 for n=1..30; x2 with the 31-bit
// cinit supplied by the physical channel (e.g. PDCCH DMRS uses a function
// of slot, symbol and the configured scrambling id).
//
// Each register lives in a uint32 with bit i holding x(n+i), so one step
// is a feedback tap, a shift, and an insert at bit 30 — no per-bit
// buffers. The Nc = 1600 warm-up is precomputed: x1's post-Nc state is a
// cinit-independent constant, and x2 is fast-forwarded through a GF(2)
// jump matrix (the one-step transition matrix raised to the 1600th power
// at package init), so GoldSequenceInto does no work proportional to Nc
// and no allocation at all.

const goldNc = 1600

// goldX1Start is the x1 register after the Nc warm-up (cinit independent).
var goldX1Start uint32

// goldX2Jump is the x2 one-step transition matrix raised to the Nc-th
// power: post-warm-up bit i is the parity of goldX2Jump[i] AND cinit.
var goldX2Jump [31]uint32

// stepX1 advances x1 by one bit: x1(n+31) = x1(n+3) + x1(n).
func stepX1(s uint32) uint32 {
	fb := ((s >> 3) ^ s) & 1
	return s>>1 | fb<<30
}

// stepX2 advances x2 by one bit:
// x2(n+31) = x2(n+3) + x2(n+2) + x2(n+1) + x2(n).
func stepX2(s uint32) uint32 {
	fb := ((s >> 3) ^ (s >> 2) ^ (s >> 1) ^ s) & 1
	return s>>1 | fb<<30
}

// applyGF2 applies a 31×31 GF(2) matrix (row i = mask of contributing
// state bits) to a register state.
func applyGF2(m *[31]uint32, s uint32) uint32 {
	var out uint32
	for i, row := range m {
		out |= uint32(mathbits.OnesCount32(row&s)&1) << uint(i)
	}
	return out
}

// composeGF2 sets dst = b∘a (apply a first, then b).
func composeGF2(dst, b, a *[31]uint32) {
	var tmp [31]uint32
	for i, row := range b {
		var acc uint32
		for row != 0 {
			j := mathbits.TrailingZeros32(row)
			acc ^= a[j]
			row &= row - 1
		}
		tmp[i] = acc
	}
	*dst = tmp
}

func init() {
	// x1 warm-up: constant, so just step it Nc times once.
	s1 := uint32(1) // x1(0) = 1, the rest 0
	for i := 0; i < goldNc; i++ {
		s1 = stepX1(s1)
	}
	goldX1Start = s1

	// x2 warm-up matrix: one-step matrix A (new bit j = old bit j+1 for
	// j < 30; new bit 30 = taps 3,2,1,0), raised to the Nc-th power by
	// square-and-multiply.
	var step, acc [31]uint32
	for j := 0; j < 30; j++ {
		step[j] = 1 << uint(j+1)
	}
	step[30] = 0b1111
	for i := range acc { // identity
		acc[i] = 1 << uint(i)
	}
	for e := goldNc; e > 0; e >>= 1 {
		if e&1 == 1 {
			composeGF2(&acc, &acc, &step)
		}
		composeGF2(&step, &step, &step)
	}
	goldX2Jump = acc
}

// GoldSequence returns the first n bits of the Gold sequence with the
// given initialisation value cinit.
func GoldSequence(cinit uint32, n int) []uint8 {
	out := make([]uint8, n)
	GoldSequenceInto(cinit, out)
	return out
}

// GoldSequenceInto fills dst with the Gold sequence for cinit. It is
// allocation free and skips the Nc warm-up via the precomputed register
// states, so per-slot scrambling paths can call it with pooled buffers.
func GoldSequenceInto(cinit uint32, dst []uint8) {
	s1 := goldX1Start
	s2 := applyGF2(&goldX2Jump, cinit&0x7FFFFFFF)
	for i := range dst {
		dst[i] = uint8((s1 ^ s2) & 1)
		s1 = stepX1(s1)
		s2 = stepX2(s2)
	}
}

// ScrambleInPlace XORs data with the Gold sequence for cinit, in place
// and without allocating. Applying it twice with the same cinit restores
// the original data.
func ScrambleInPlace(cinit uint32, data []uint8) {
	s1 := goldX1Start
	s2 := applyGF2(&goldX2Jump, cinit&0x7FFFFFFF)
	for i := range data {
		data[i] ^= uint8((s1 ^ s2) & 1)
		s1 = stepX1(s1)
		s2 = stepX2(s2)
	}
}

// DescrambleLLRInPlace flips the sign of llr[i] wherever seq[i] is 1 —
// the LLR-domain form of descrambling (a scrambled bit inverts the
// meaning of its soft value). The flip is a branch-free sign-bit XOR, so
// it vectorises and treats ±0 and non-finite values consistently.
// len(seq) must be at least len(llr).
func DescrambleLLRInPlace(seq []uint8, llr []float64) {
	if len(llr) == 0 {
		return
	}
	_ = seq[len(llr)-1]
	for i, v := range llr {
		llr[i] = DescrambleLLR(v, seq[i])
	}
}

// DescrambleLLR is DescrambleLLRInPlace for one LLR v and its scrambling
// bit s, for front ends that descramble as they demap.
func DescrambleLLR(v float64, s uint8) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ uint64(s&1)<<63)
}

// PDCCHScramblingInit computes the cinit for PDCCH bit scrambling
// (TS 38.211 §7.3.2.3): cinit = (nRNTI·2^16 + nID) mod 2^31. For the
// common search space nRNTI is 0 and nID is the cell id.
func PDCCHScramblingInit(nRNTI uint16, nID uint16) uint32 {
	return (uint32(nRNTI)<<16 + uint32(nID)) & 0x7FFFFFFF
}

// PDCCHDMRSInit computes the cinit for PDCCH DMRS generation
// (TS 38.211 §7.4.1.3.1) for a given slot and symbol:
// cinit = (2^17 (14·ns + l + 1)(2·nID + 1) + 2·nID) mod 2^31.
func PDCCHDMRSInit(slot, symbol int, nID uint16) uint32 {
	v := (uint64(1) << 17) * uint64(14*slot+symbol+1) * uint64(2*uint32(nID)+1)
	v += 2 * uint64(nID)
	return uint32(v & 0x7FFFFFFF)
}

// PDSCHScramblingInit computes the cinit for PDSCH bit scrambling
// (TS 38.211 §7.3.1.1): cinit = nRNTI·2^15 + q·2^14 + nID, with codeword
// index q (0 here; single-codeword transmission).
func PDSCHScramblingInit(rnti uint16, nID uint16) uint32 {
	return (uint32(rnti)<<15 + uint32(nID)) & 0x7FFFFFFF
}
