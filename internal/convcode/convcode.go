// Package convcode implements a constraint-length-7, rate-1/3
// convolutional code with a soft-decision Viterbi decoder.
//
// It stands in for the 5G LDPC shared-channel FEC (TS 38.212 §5.3.2); see
// DESIGN.md §2 for the substitution rationale. The generator polynomials
// are the classic ones used by LTE's tail-biting convolutional code
// (TS 36.212 §5.1.3.1): g0 = 133, g1 = 171, g2 = 165 (octal). The encoder
// here is zero-tailed: six flush bits return the trellis to state zero so
// the decoder can start and end in a known state.
//
// Rate matching to an arbitrary number of channel bits E is done by
// cyclic repetition (E >= coded length) or by even puncturing (E smaller),
// with erased positions receiving zero LLR at the decoder.
package convcode

import (
	"fmt"
	"math"
)

const (
	constraintLen = 7
	memory        = constraintLen - 1
	numStates     = 1 << memory
	rateInv       = 3 // rate 1/3: three output bits per input bit
)

// Generator polynomials 133, 171, 165 (octal), constraint length 7.
var generators = [rateInv]uint32{0o133, 0o171, 0o165}

// outputTable[state][input] is the 3-bit output for a transition.
var outputTable [numStates][2]uint8

// nextState[state][input] is the successor trellis state.
var nextState [numStates][2]uint8

// parity6 holds the parity of x in bit x, for every 6-bit x.
var parity6 uint64

// butterflyOut[j] is the output of the transition 2j --0--> j. Every
// generator taps both ends of the register, so flipping the input bit or
// the oldest state bit complements all three outputs: 2j+1 --0--> j and
// 2j --1--> j+32 emit butterflyOut[j]^7, 2j+1 --1--> j+32 emits it as is.
var butterflyOut [numStates / 2]uint8

func init() {
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			reg := uint32(in)<<memory | uint32(s)
			var out uint8
			for g := 0; g < rateInv; g++ {
				out <<= 1
				out |= uint8(parity32(reg & generators[g]))
			}
			outputTable[s][in] = out
			nextState[s][in] = uint8(reg >> 1)
		}
	}
	for j := range butterflyOut {
		butterflyOut[j] = outputTable[2*j][0]
	}
	for x := uint32(0); x < numStates; x++ {
		parity6 |= uint64(parity32(x)) << x
	}
}

func parity32(v uint32) uint32 {
	v ^= v >> 16
	v ^= v >> 8
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return v & 1
}

// CodedLen returns the number of coded bits produced for k input bits
// (including the six flush bits).
func CodedLen(k int) int { return (k + memory) * rateInv }

// Encode convolutionally encodes the input bits, appending six zero flush
// bits, and returns the coded bit stream of length CodedLen(len(info)).
func Encode(info []uint8) []uint8 {
	out := make([]uint8, 0, CodedLen(len(info)))
	state := uint8(0)
	emit := func(bit uint8) {
		o := outputTable[state][bit&1]
		out = append(out, o>>2&1, o>>1&1, o&1)
		state = nextState[state][bit&1]
	}
	for _, b := range info {
		emit(b)
	}
	for i := 0; i < memory; i++ {
		emit(0)
	}
	return out
}

// RateMatch adapts coded bits to exactly e channel bits: repetition when
// e exceeds the coded length, even puncturing otherwise. It returns an
// error when e is smaller than half the coded length (the decoder needs
// rate <= 2/3 overall to stay useful).
func RateMatch(coded []uint8, e int) ([]uint8, error) {
	n := len(coded)
	if e >= n {
		out := make([]uint8, e)
		for i := range out {
			out[i] = coded[i%n]
		}
		return out, nil
	}
	if e < n/2 {
		return nil, fmt.Errorf("convcode: E = %d punctures more than half of %d coded bits", e, n)
	}
	// Even puncturing: keep positions spread uniformly.
	out := make([]uint8, e)
	for i := 0; i < e; i++ {
		out[i] = coded[i*n/e]
	}
	return out, nil
}

// RateRecover expands e channel LLRs back to the coded length n:
// repeated positions accumulate, punctured positions stay at zero LLR.
func RateRecover(llr []float64, n int) []float64 {
	return rateRecoverInto(make([]float64, n), llr)
}

// rateRecoverInto is RateRecover into rec, whose length is the coded
// length; it overwrites and returns rec.
func rateRecoverInto(rec, llr []float64) []float64 {
	clear(rec)
	n := len(rec)
	if e := len(llr); e >= n {
		// LLR i lands on i%n: add one period of n at a time.
		for n > 0 && len(llr) > 0 {
			chunk := llr[:min(n, len(llr))]
			for i, v := range chunk {
				rec[i] += v
			}
			llr = llr[len(chunk):]
		}
	} else if e > 0 {
		// LLR i lands on i*n/e, stepped as a quotient and remainder.
		q, r, dq, dr := 0, 0, n/e, n%e
		for _, v := range llr {
			rec[q] += v
			q, r = q+dq, r+dr
			if r >= e {
				q, r = q+1, r-e
			}
		}
	}
	return rec
}

// Workspace holds the Viterbi decoder's scratch (rate-recovery buffer,
// one packed decision word per trellis step, traceback output) so
// repeated decodes allocate nothing once the buffers have grown to the
// largest block seen. A Workspace is not safe for concurrent use;
// per-slot decode paths keep one in their pooled scratch.
type Workspace struct {
	recovered []float64
	dec       []uint64
	out       []uint8
}

// Decode runs soft-decision Viterbi decoding over coded-bit LLRs
// (positive = bit 0 likelier). len(llr) must equal CodedLen(k) for the
// original info length k, which the caller supplies. It returns the k
// decoded information bits. The returned slice aliases the workspace and
// is only valid until the next Decode/RecoverAndDecode call.
//
// The trellis is trimmed at both ends: the first six steps touch only
// the states reachable from the zero start, and the six flush steps only
// the states that can still reach the zero tail. That is 37 % fewer adds
// and compares for a 22-bit UCI block and 4 % for a 256-bit one.
//
// Before the trellis, a block whose hard decisions already form a
// codeword with a clear margin is returned as decoded by inverting the
// encoder (see codeword); the trellis would return the same bits.
//
// The LLRs must be finite and vanish next to the 1e300 start sentinel
// (unreachable states then keep exactly -1e300); every production LLR
// is saturated into ±modulation.MaxLLR with NaN mapped to 0. Within that
// contract the hard decisions are bit-identical to the scalar decoder
// kept as the test oracle.
func (w *Workspace) Decode(llr []float64, k int) []uint8 {
	steps := k + memory
	if len(llr) != steps*rateInv {
		panic(fmt.Sprintf("convcode: got %d LLRs for k = %d (want %d)", len(llr), k, steps*rateInv))
	}
	if cap(w.out) < steps {
		w.out = make([]uint8, steps)
	}
	out := w.out[:steps]
	if codeword(llr, k, out) {
		return out[:k]
	}
	if cap(w.dec) < steps {
		w.dec = make([]uint64, steps)
	}
	// Bit s of dec[t] is set when state s at step t was entered from its
	// odd predecessor.
	dec := w.dec[:steps]
	var a, b [numStates]float64
	for s := 1; s < numStates; s++ {
		// The trellis starts in state 0. Both buffers hold the sentinel:
		// a block shorter than the memory enters its tail before every
		// state has been reached.
		a[s], b[s] = -1e300, -1e300
	}
	metric, next := &a, &b

	for t := range dec {
		l0 := llr[t*rateInv]
		l1 := llr[t*rateInv+1]
		l2 := llr[t*rateInv+2]
		// Branch metrics by 3-bit output pattern: +LLR when the output
		// bit is 0. Hoisting the eight sums out of the state loop turns
		// the 128 transition updates into one add and one compare each.
		var bm [8]float64
		bm[0b000] = l0 + l1 + l2
		bm[0b001] = l0 + l1 - l2
		bm[0b010] = l0 - l1 + l2
		bm[0b011] = l0 - l1 - l2
		bm[0b100] = -l0 + l1 + l2
		bm[0b101] = -l0 + l1 - l2
		bm[0b110] = -l0 - l1 + l2
		bm[0b111] = -l0 - l1 - l2
		// Butterfly j: states 2j and 2j+1 feed j (input 0) and j+32
		// (input 1). The select is branch-free, and a tie keeps the even
		// predecessor.
		var d uint64
		switch {
		case t >= k:
			// Zero tail: the input is 0, and with r = steps-1-t flush
			// steps left after this one only the states below 2^r can
			// still reach state 0, so only the input-0 halves of the
			// first 2^r butterflies run. Traceback reads no other state.
			for j := 0; j < 1<<(steps-1-t); j++ {
				m0, m1 := metric[2*j], metric[2*j+1]
				o := butterflyOut[j] & 7
				a0, b0 := m0+bm[o], m1+bm[o^7]
				next[j] = max(a0, b0)
				d |= greater(b0, a0) << j
			}
		case t < memory:
			// Start-up: t steps from state 0 reach only the multiples of
			// 2^(memory-t). Each odd predecessor still holds the
			// sentinel, so the even one wins outright and every decision
			// bit stays 0; the unreached states keep the sentinel.
			for j := 0; j < numStates/2; j += numStates / 2 >> t {
				m0 := metric[2*j]
				o := butterflyOut[j] & 7
				next[j], next[j+numStates/2] = m0+bm[o], m0+bm[o^7]
			}
		default:
			for j := 0; j < numStates/2; j++ {
				m0, m1 := metric[2*j], metric[2*j+1]
				o := butterflyOut[j] & 7 // the mask drops the bm bounds checks
				a0, b0 := m0+bm[o], m1+bm[o^7]
				a1, b1 := m0+bm[o^7], m1+bm[o]
				next[j], next[j+numStates/2] = max(a0, b0), max(a1, b1)
				d |= greater(b0, a0)<<j | greater(b1, a1)<<(j+numStates/2)
			}
		}
		dec[t] = d
		metric, next = next, metric
	}

	// Trace back from state 0 (zero-tailed): the input bit is the new
	// state's top bit, the predecessor its low bits plus the decision.
	state := uint64(0)
	for t := steps - 1; t >= 0; t-- {
		out[t] = uint8(state >> (memory - 1))
		state = state<<1&(numStates-1) | dec[t]>>state&1
	}
	return out[:k]
}

// codeword is the check in front of the trellis. It takes the hard
// decision of each LLR (its sign bit) and inverts the encoder step by
// step: g0 = 133 taps the input bit, so the input is c0 ⊕ parity(state &
// 0o33), and the other two output bits must then be the ones the encoder
// emits from that state. The six flush inputs must be 0, which also ends
// the walk in state 0. It writes the inputs to out (length k + memory)
// and reports true only when, besides, every |LLR| is nonzero and
// min|l| > n·2⁻⁵¹·Σ|l| for the n = len(llr) LLRs. Then the Viterbi
// decoder is certain to return the same bits:
//
//   - Float addition is monotone, so at every step the hard path's
//     branch metric, the float sum of |l0|, |l1|, |l2|, is ≥ that of
//     every other output pattern, a sum of the same terms with some
//     negated.
//   - Any path metric is a float sum of ±|l| terms over a prefix of the
//     block, whatever the summation tree; its error is at most γₙ·Σ|l|,
//     with γₙ = n·u/(1−n·u) ≤ n·2⁻⁵² (u = 2⁻⁵³). The float Σ|l| computed
//     here is at least half the exact one, and a computed threshold
//     below min|l| means the exact one is too, so the margin test gives
//     min|l| > γₙ·Σ|l|.
//   - A competitor merging into a state of the hard path differs from it
//     in at least one coded bit, so its exact metric is lower by at least
//     2·min|l|, and its float metric stays strictly lower. The hard path
//     is therefore the strict float survivor at every merge, and
//     tie-breaking never decides. A competitor still carrying the -1e300
//     sentinel (a block shorter than the memory) is lower anyway.
//   - The hard path starts and ends in state 0, which both the trimmed
//     start-up and the trimmed tail keep, so traceback follows it.
//
// Zero, NaN or overflowing LLRs fail the margin test, and those blocks
// take the trellis.
func codeword(llr []float64, k int, out []uint8) bool {
	const sign = 1 << 63
	state := uint64(0)
	lo, sum := uint64(math.MaxUint64), 0.0
	for t := range out {
		l := llr[t*rateInv : t*rateInv+rateInv]
		b0, b1, b2 := math.Float64bits(l[0]), math.Float64bits(l[1]), math.Float64bits(l[2])
		// The input that explains c0, then the c1 and c2 it would emit:
		// each generator's state taps, parity-looked-up in one word.
		u := b0>>63 ^ parity6>>(state&0o33)&1
		if b1>>63 != u^parity6>>(state&0o71)&1 || b2>>63 != u^parity6>>(state&0o65)&1 || t >= k && u != 0 {
			return false
		}
		out[t] = uint8(u)
		state = u<<(memory-1) | state>>1
		// |l| as bits: for non-negative floats the integer order is the
		// float order (and a NaN sorts above +Inf, and poisons sum).
		b0, b1, b2 = b0&^sign, b1&^sign, b2&^sign
		lo = min(lo, b0, b1, b2)
		sum += math.Float64frombits(b0) + math.Float64frombits(b1) + math.Float64frombits(b2)
	}
	return math.Float64frombits(lo) > float64(len(llr))*0x1p-51*sum
}

// greater is x > y as 0 or 1, compiled to a flag set rather than a branch.
func greater(x, y float64) uint64 {
	if x > y {
		return 1
	}
	return 0
}

// RecoverAndDecode rate-recovers e channel LLRs for an original info
// length k and Viterbi-decodes, reusing the workspace buffers. The
// returned slice aliases the workspace (see Decode).
func (w *Workspace) RecoverAndDecode(llr []float64, k int) []uint8 {
	n := CodedLen(k)
	if cap(w.recovered) < n {
		w.recovered = make([]float64, n)
	}
	return w.Decode(rateRecoverInto(w.recovered[:n], llr), k)
}

// Decode runs soft-decision Viterbi decoding over coded-bit LLRs with a
// throwaway workspace; see Workspace.Decode. Hot paths should hold a
// Workspace instead.
func Decode(llr []float64, k int) []uint8 {
	return new(Workspace).Decode(llr, k)
}

// EncodeAndMatch is a convenience that encodes info and rate-matches to e
// channel bits in one step.
func EncodeAndMatch(info []uint8, e int) ([]uint8, error) {
	return RateMatch(Encode(info), e)
}

// RecoverAndDecode is the receive-side convenience: rate-recovers e LLRs
// for an original info length k and Viterbi-decodes with a throwaway
// workspace. Hot paths should hold a Workspace instead.
func RecoverAndDecode(llr []float64, k int) []uint8 {
	return new(Workspace).RecoverAndDecode(llr, k)
}
