package polar

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Fast-SSC decoding (Sarkis et al., "Fast Polar Decoders: Algorithm and
// Implementation"): instead of recursing into every subtree, the code
// classifies each subtree once at construction time and precomputes a
// flat operation schedule. Constituent nodes with special frozen
// patterns are decoded directly — no recursion below them:
//
//	rate-0      all positions frozen: partial sums are zero.
//	rate-1      no position frozen: hard-decide each LLR.
//	repetition  only the last position carries information: the bit is
//	            the sign of the (butterfly-ordered) LLR sum, broadcast.
//	SPC         only the first position is frozen: a single-parity-check
//	            code, decoded by replaying the recursion's f-cascade to
//	            the bottom repetition pair and unwinding g / hard-
//	            decision / combine per level.
//
// Everything else becomes explicit f/g/combine ops over the pooled
// scScratch buffers, executed iteratively — no call overhead, and the
// inner loops are flat slices the compiler can keep in registers.
//
// The executor's hard decisions are bit-identical to recursive float
// min-sum SC (scDecode over the whole tree, the test oracle) on every
// input within DecodeInto's contract, enforced by property and fuzz
// tests over random frozen masks and adversarial LLRs. Two
// specializations are guarded because plain shortcuts diverge from
// float min-sum SC on exact ties:
//
//   - rate-1 hard decisions equal the SC result only when every node
//     LLR is nonzero (an exact zero can flip sign under the f/g
//     recursion: f(0,-5) = -0 decodes to 0, while the hard decision of
//     the later g output may differ). The executor scans for zeros and
//     falls back to scDecode for just that subtree.
//   - SPC is not decoded with the textbook min-|LLR| parity flip (whose
//     tie-breaking and rounding differ from chained f/g floats); it
//     replays the recursion's exact arithmetic level by level, so each
//     intermediate equals scDecode's value operation for operation.
//
// Repetition nodes need no guard: the in-place butterfly sum performs
// the identical additions in the identical order as the g-with-zero
// cascade of scDecode.
//
// There is no NaN or infinity handling: DecodeInto's contract (finite
// channel LLRs of magnitude at most 1e6) keeps every intermediate far
// below overflow, so every LLR the executor touches is finite. That is
// what lets the g step use a sign-flip add and the rate-1/repetition
// shortcuts skip NaN ordering concerns.

// nodeOp kinds. opF/opG/opG0/opCombine are the generic tree ops; the
// rest decode a whole constituent node.
const (
	opF       uint8 = iota // f into levels[depth] (left-child LLRs)
	opG                    // g into levels[depth] (right-child LLRs, reads left sums)
	opG0                   // g with all-zero left sums (left child was rate-0)
	opCombine              // out[i] ^= out[i+half]
	opRate0                // zero the node's partial sums
	opRate1                // hard-decide each LLR (guarded)
	opRep                  // repetition: sign of butterfly LLR sum, broadcast
	opSPC                  // single-parity-check: staged f-cascade + unwind
	opBranch               // internal classify result, never scheduled
)

// nodeOp is one step of the flat decode schedule. base/n locate the
// subtree's positions; depth selects the scratch level holding its LLRs
// (depth 0 = chLLR, else levels[depth-1][:n]).
type nodeOp struct {
	kind  uint8
	depth uint8
	base  int16
	n     int16
}

// finish derives everything computed from the frozen mask: the prefix
// sums behind allFrozen and the fast-SSC schedule. construct calls it;
// tests call it directly on hand-built masks.
func (c *Code) finish() {
	c.frozenUpTo = make([]int32, c.N+1)
	for i, f := range c.isFrozen {
		c.frozenUpTo[i+1] = c.frozenUpTo[i]
		if f {
			c.frozenUpTo[i+1]++
		}
	}
	c.schedule = c.schedule[:0]
	c.emit(0, c.N, 0)
}

// classify maps a subtree to its constituent-node kind, or opBranch
// when it has no special structure and must be split.
func (c *Code) classify(base, n int) uint8 {
	f := int(c.frozenUpTo[base+n] - c.frozenUpTo[base])
	switch {
	case f == n:
		return opRate0
	case f == 0:
		return opRate1
	case n >= 2 && f == n-1 && !c.isFrozen[base+n-1]:
		return opRep
	case n >= 4 && f == 1 && c.isFrozen[base]:
		return opSPC
	}
	return opBranch
}

// emit appends the schedule for the subtree [base, base+n) at depth,
// mirroring scDecode's control flow exactly — including the rate-0
// pruning that skips the f step, and the early return (no combine) when
// the right half is entirely frozen.
func (c *Code) emit(base, n, depth int) {
	if k := c.classify(base, n); k != opBranch {
		c.schedule = append(c.schedule, nodeOp{kind: k, depth: uint8(depth), base: int16(base), n: int16(n)})
		return
	}
	half := n / 2
	leftZero := c.allFrozen(base, half)
	if leftZero {
		c.schedule = append(c.schedule, nodeOp{kind: opRate0, depth: uint8(depth + 1), base: int16(base), n: int16(half)})
	} else {
		c.schedule = append(c.schedule, nodeOp{kind: opF, depth: uint8(depth), base: int16(base), n: int16(n)})
		c.emit(base, half, depth+1)
	}
	if c.allFrozen(base+half, half) {
		c.schedule = append(c.schedule, nodeOp{kind: opRate0, depth: uint8(depth + 1), base: int16(base + half), n: int16(half)})
		return
	}
	g := opG
	if leftZero {
		g = opG0
	}
	c.schedule = append(c.schedule, nodeOp{kind: g, depth: uint8(depth), base: int16(base), n: int16(n)})
	c.emit(base+half, half, depth+1)
	c.schedule = append(c.schedule, nodeOp{kind: opCombine, base: int16(base), n: int16(n)})
}

// asBits reinterprets an LLR slice as its raw IEEE-754 words. The f
// step is pure sign/magnitude bit manipulation, so running it over an
// integer view keeps the whole loop in the integer pipeline — the
// compiler otherwise loads each operand into an xmm register only to
// immediately move it back out for Float64bits.
func asBits(v []float64) []uint64 {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&v[0])), len(v))
}

// fBits is fLLR over raw IEEE-754 words: the sign of the output is the
// XOR of the operand signs, the magnitude the smaller operand
// magnitude (magnitudes of non-NaN doubles order correctly as unsigned
// integers, and fLLR's NaN ordering is this same integer compare).
func fBits(x, y uint64) uint64 {
	const signMask = 1 << 63
	sign := (x ^ y) & signMask
	x &^= signMask
	y &^= signMask
	if y < x {
		x = y
	}
	return sign | x
}

// gSelect is the g step b ± a with the branch on the decoded bit u
// replaced by XORing u into a's sign bit and always adding. u is
// effectively random during decode, so gLLR's data-dependent
// branch mispredicts half the time; the sign-flip form is branch-free.
// b + (-a) is bit-exact with b - a for every zero, denormal, finite
// and infinite a (IEEE subtraction IS addition of the negated
// operand). A NaN a would NOT be equivalent — the flipped sign changes
// the payload the hardware propagates — but DecodeInto's contract
// keeps every operand finite.
func gSelect(a, b float64, u uint8) float64 {
	return b + math.Float64frombits(math.Float64bits(a)^(uint64(u)<<63))
}

// xorInto XORs src into dst elementwise — the combine step is pure
// GF(2), so word order is irrelevant. Lengths are always a power of
// two (half a node), so there is never a partial-word tail: two- and
// four-byte combines load exactly one small word, everything larger
// runs whole eight-byte words.
func xorInto(dst, src []uint8) {
	switch len(dst) {
	case 1:
		dst[0] ^= src[0]
	case 2:
		binary.LittleEndian.PutUint16(dst, binary.LittleEndian.Uint16(dst)^binary.LittleEndian.Uint16(src))
	case 4:
		binary.LittleEndian.PutUint32(dst, binary.LittleEndian.Uint32(dst)^binary.LittleEndian.Uint32(src))
	default:
		src = src[:len(dst)]
		for i := 0; i+8 <= len(dst); i += 8 {
			binary.LittleEndian.PutUint64(dst[i:],
				binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
		}
	}
}

// fPass runs the f step over integer views of both operand halves.
// Kept out of runSchedule's switch on purpose: the dispatch loop keeps
// enough state live that an inlined body spills and reloads slice
// headers inside the hot loop; a standalone frame gets clean register
// allocation.
//
//go:noinline
func fPass(dst, a, bh []uint64) {
	a = a[:len(dst)]
	bh = bh[:len(dst)]
	i := 0
	for ; i+2 <= len(dst); i += 2 {
		dst[i] = fBits(a[i], bh[i])
		dst[i+1] = fBits(a[i+1], bh[i+1])
	}
	if i < len(dst) {
		dst[i] = fBits(a[i], bh[i])
	}
}

// gPass runs the branch-free g step; see fPass for why it lives
// outside the dispatch switch.
//
//go:noinline
func gPass(dst, a, bh []float64, us []uint8) {
	a = a[:len(dst)]
	bh = bh[:len(dst)]
	us = us[:len(dst)]
	i := 0
	for ; i+2 <= len(dst); i += 2 {
		dst[i] = gSelect(a[i], bh[i], us[i])
		dst[i+1] = gSelect(a[i+1], bh[i+1], us[i+1])
	}
	if i < len(dst) {
		dst[i] = gSelect(a[i], bh[i], us[i])
	}
}

// nodeLLR returns the scratch buffer holding the LLRs of a node at the
// given depth: the channel LLRs at the root, else the parent's f/g
// output level.
func (c *Code) nodeLLR(s *scScratch, depth, n int) []float64 {
	if depth == 0 {
		return s.chLLR
	}
	return s.levels[depth-1][:n]
}

// runSchedule executes the fast-SSC schedule over the scratch buffers,
// leaving the decoded codeword in s.sums and the information bits in
// s.u. Every information position belongs to exactly one terminal node
// (rate-1, repetition, SPC, or an info leaf under a generic branch), so
// each terminal writes its own slice of s.u: repetition nodes place
// their single bit directly, while rate-1 and SPC nodes invert their
// local partial sums with a size-n polar transform (the transform is an
// involution over GF(2)). Frozen positions are never read back by
// extract, so rate-0 nodes skip u entirely.
func (c *Code) runSchedule(s *scScratch) {
	for _, op := range c.schedule {
		base, n, depth := int(op.base), int(op.n), int(op.depth)
		switch op.kind {
		case opF:
			llr := c.nodeLLR(s, depth, n)
			half := n / 2
			fPass(asBits(s.levels[depth][:half]), asBits(llr[:half]), asBits(llr[half:][:half]))
		case opG:
			llr := c.nodeLLR(s, depth, n)
			half := n / 2
			gPass(s.levels[depth][:half], llr[:half], llr[half:][:half], s.sums[base:][:half])
		case opG0:
			llr := c.nodeLLR(s, depth, n)
			half := n / 2
			a, bh := llr[:half], llr[half:][:half]
			dst := s.levels[depth][:half]
			for i := range dst {
				dst[i] = bh[i] + a[i]
			}
		case opCombine:
			half := n / 2
			out := s.sums[base : base+n]
			xorInto(out[:half], out[half:])
		case opRate0:
			out := s.sums[base : base+n]
			for i := range out {
				out[i] = 0
			}
		case opRate1:
			c.rate1(s, c.nodeLLR(s, depth, n)[:n], base, n, depth)
		case opRep:
			// In-place butterfly halving performs the same additions in
			// the same order as scDecode's g-with-zero cascade
			// (clobbering the node's LLR buffer is safe: it is dead once
			// the node completes).
			v := c.nodeLLR(s, depth, n)[:n]
			out := s.sums[base : base+n]
			var bit uint8
			if n == 4 {
				// Unrolled butterfly for the most common size.
				if (v[3]+v[1])+(v[2]+v[0]) < 0 {
					bit = 1
				}
				out[0], out[1], out[2], out[3] = bit, bit, bit, bit
				s.u[base+3] = bit
				continue
			}
			for m := n; m > 1; m >>= 1 {
				half := m >> 1
				lo, hi := v[:half], v[half:][:half]
				for i := range lo {
					lo[i] = hi[i] + lo[i]
				}
			}
			if v[0] < 0 {
				bit = 1
			}
			for i := range out {
				out[i] = bit
			}
			s.u[base+n-1] = bit // the node's only information position
		case opSPC:
			c.spc(s, c.nodeLLR(s, depth, n)[:n], base, n, depth)
		}
	}
}

// rate1 hard-decides the rate-1 node [base, base+n) whose LLRs are v.
// For nonzero LLRs the hard decisions equal the recursive SC result
// (induction: f and g of same-sign operands preserve the product sign
// structure, so every leaf decision reduces to the sign of its own
// channel LLR); an exact zero anywhere voids that proof, so the node
// falls back to scDecode. NaNs would void it too, but DecodeInto's
// contract keeps them out of every buffer rate1 can see.
func (c *Code) rate1(s *scScratch, v []float64, base, n, depth int) {
	if n == 1 {
		// The leaf rule verbatim: bit = 1 iff llr < 0 (so -0 and NaN
		// decode to 0, exactly like scDecode's leaf).
		var bit uint8
		if v[0] < 0 {
			bit = 1
		}
		s.sums[base] = bit
		s.u[base] = bit
		return
	}
	// Zero detection: w<<1 == 0 exactly when the raw bits encode ±0.
	// NaNs need no check: under DecodeInto's contract none can arise.
	out := s.sums[base : base+n]
	switch n {
	case 2:
		// The size-2 and size-4 transforms unrolled: SPC unwinds call
		// rate1 mostly at these sizes, where the generic copy+transform
		// costs more than the decisions themselves.
		w0 := math.Float64bits(v[0])
		w1 := math.Float64bits(v[1])
		if w0<<1 == 0 || w1<<1 == 0 {
			c.scDecode(s, v, out, base, depth)
			return
		}
		b0, b1 := uint8(w0>>63), uint8(w1>>63)
		out[0], out[1] = b0, b1
		s.u[base], s.u[base+1] = b0^b1, b1
	case 4:
		w0 := math.Float64bits(v[0])
		w1 := math.Float64bits(v[1])
		w2 := math.Float64bits(v[2])
		w3 := math.Float64bits(v[3])
		if w0<<1 == 0 || w1<<1 == 0 || w2<<1 == 0 || w3<<1 == 0 {
			c.scDecode(s, v, out, base, depth)
			return
		}
		b0, b1 := uint8(w0>>63), uint8(w1>>63)
		b2, b3 := uint8(w2>>63), uint8(w3>>63)
		out[0], out[1], out[2], out[3] = b0, b1, b2, b3
		s.u[base], s.u[base+1], s.u[base+2], s.u[base+3] = b0^b1^b2^b3, b1^b3, b2^b3, b3
	default:
		zero := false
		for i, x := range v {
			w := math.Float64bits(x)
			if w<<1 == 0 {
				zero = true
			}
			out[i] = uint8(w >> 63)
		}
		if zero {
			// scDecode recomputes the node from its LLRs (the partial
			// decisions above are fully overwritten) and writes the leaf
			// u bits itself.
			c.scDecode(s, v, out, base, depth)
			return
		}
		// Local involution: the node's input bits from its partial sums.
		u := s.u[base : base+n]
		copy(u, out)
		transform(u)
	}
}

// spc decodes a single-parity-check node (frozen only at base) by
// replaying scDecode's operation sequence: an f-cascade down to the
// size-2 repetition node, then per-level g, rate-1 hard decision, and
// combine on the way back up. Every float op matches the
// recursion's op on the same operands in the same buffers, so the
// result is bit-identical — including the rounding and tie cases a
// direct Wagner (min-|LLR| parity flip) decode would get wrong.
func (c *Code) spc(s *scScratch, buf []float64, base, n, depth int) {
	out := s.sums[base : base+n]
	if n == 4 {
		// The most common SPC size, fully unrolled: f pair, bottom
		// repetition decision, g pair, rate-1 pair, combine — the same
		// ops as the loops below without any slice bookkeeping.
		f0 := math.Float64frombits(fBits(math.Float64bits(buf[0]), math.Float64bits(buf[2])))
		f1 := math.Float64frombits(fBits(math.Float64bits(buf[1]), math.Float64bits(buf[3])))
		var bit uint8
		if f1+f0 < 0 {
			bit = 1
		}
		w0 := math.Float64bits(gSelect(buf[0], buf[2], bit))
		w1 := math.Float64bits(gSelect(buf[1], buf[3], bit))
		if w0<<1 == 0 || w1<<1 == 0 {
			// Zero in the rate-1 pair: replay it through scDecode (see
			// rate1's guard).
			lv := s.levels[depth][:2]
			lv[0] = math.Float64frombits(w0)
			lv[1] = math.Float64frombits(w1)
			c.scDecode(s, lv, out[2:4], base+2, depth+1)
		} else {
			b2, b3 := uint8(w0>>63), uint8(w1>>63)
			out[2], out[3] = b2, b3
			s.u[base+2], s.u[base+3] = b2^b3, b3
		}
		out[0], out[1] = bit^out[2], bit^out[3]
		s.u[base+1] = bit
		return
	}
	src := buf
	d := depth
	for m := n; m > 2; m >>= 1 {
		half := m >> 1
		dst := s.levels[d][:half]
		a, bh := asBits(src[:half])[:half], asBits(src[half:][:half])[:half]
		db := asBits(dst)[:half]
		for i := range db {
			db[i] = fBits(a[i], bh[i])
		}
		src = dst
		d++
	}
	// Bottom of the cascade: a repetition pair (frozen, info). Its u
	// bits plus the unwind children's (written by rate1) cover every
	// position of the node.
	var bit uint8
	if src[1]+src[0] < 0 {
		bit = 1
	}
	s.sums[base] = bit
	s.sums[base+1] = bit
	s.u[base+1] = bit
	for m := 2; m < n; m <<= 1 {
		d--
		lv := buf
		if d != depth {
			lv = s.levels[d-1][:2*m]
		}
		g := s.levels[d][:m]
		out := s.sums[base : base+2*m]
		la, lb, us := lv[:m], lv[m:][:m], out[:m]
		for i := range g {
			g[i] = gSelect(la[i], lb[i], us[i])
		}
		c.rate1(s, g, base+m, m, d+1)
		xorInto(out[:m], out[m:])
	}
}
