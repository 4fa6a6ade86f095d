package polar

import (
	"encoding/binary"
	"math"
	"math/bits"
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
// Everything else becomes explicit f/g/combine ops over the
// Workspace buffers, executed iteratively — no call overhead, and the
// inner loops are flat slices the compiler can keep in registers. A
// codeword check may precede such a branch and skip it: see below.
//
// The executor's hard decisions are bit-identical to recursive float
// min-sum SC (scDecode over the whole tree, the test oracle) on every
// input within DecodeInto's contract, enforced by property and fuzz
// tests over random frozen masks and adversarial LLRs.
//
// Rate-1 nodes and checks rest on one induction. Let a node's LLRs v
// be nonzero with hard decisions x (x_i = 1 iff v_i < 0), and let
// u = x·G, the polar transform of x, be zero on the node's frozen
// positions. Write x = (a⊕b, b), a and b encoding u's halves. f of
// v_i and v_{i+n/2} is nonzero with sign a_i, and a is a codeword of
// the left subcode, so the left child returns a; g adds v_i, flipped
// by a_i, to v_{i+n/2}: two nonzero terms of sign b_i, so the right
// child returns b and the combine yields x. A leaf decides its sign, a
// frozen one 0, which the frozen test guarantees. So SC returns x and
// u. A zero voids the proof (a -0 leaf decides 0): a rate-1 node falls
// back to scDecode for that subtree, and a failed check runs its ops.
//
// Checks go where a miss stays cheap: on branch nodes of at least
// minCheck positions whose LLRs cannot hold a punctured zero (a static
// taint; the runtime zero test stays for demapped NaNs and exact g
// cancellations), never below another check, so an LLR is scanned at
// most once per decode. A check first tests a few frozen parities (u_i
// reads only the x_j with j ⊇ i, few for high i), then packs the signs
// into words, transforms them and ANDs in the packed frozen mask.
//
// SPC is not decoded with the textbook min-|LLR| parity flip (whose
// tie-breaking and rounding differ from chained f/g floats); it
// replays the recursion's exact arithmetic level by level, so each
// intermediate equals scDecode's value operation for operation.
// Repetition nodes need no guard: the in-place butterfly sum performs
// the identical additions in the identical order as the g-with-zero
// cascade of scDecode.
//
// There is no NaN or infinity handling: DecodeInto's contract (finite
// channel LLRs of magnitude at most 1e6) keeps every intermediate far
// below overflow, so every LLR the executor touches is finite. That is
// what lets the g step use a sign-flip add and the rate-1/repetition
// shortcuts skip NaN ordering concerns.

// nodeOp kinds. opF/opG/opG0/opCombine are the generic tree ops;
// opCheck guards a branch subtree; the rest decode a whole constituent
// node.
const (
	opF       uint8 = iota // f into levels[depth] (left-child LLRs)
	opG                    // g into levels[depth] (right-child LLRs, reads left sums)
	opG0                   // g with all-zero left sums (left child was rate-0)
	opCombine              // out[i] ^= out[i+half]
	opRate0                // zero the node's partial sums
	opRate1                // hard-decide each LLR (guarded)
	opRep                  // repetition: sign of butterfly LLR sum, broadcast
	opSPC                  // single-parity-check: staged f-cascade + unwind
	opCheck                // codeword check: on a hit, skip the subtree
	opBranch               // internal classify result, never scheduled
)

// A check guards branch nodes of at least minCheck positions and first
// tests up to maxScreens frozen parities of at most min(n/4, maxSpan) LLRs.
const minCheck, maxScreens, maxSpan = 8, 4, 16

// check is the construction-time data of one opCheck.
type check struct {
	end    int      // schedule index just past the checked subtree
	frozen []uint64 // node frozen mask: bit i%64 of word i/64 is position base+i
	screen []int16  // frozen positions tested first, node-local
}

// nodeOp is one step of the flat decode schedule. base/n locate the
// subtree's positions; depth selects the scratch level holding its LLRs
// (depth 0 = chLLR, else levels[depth-1][:n]).
type nodeOp struct {
	kind  uint8
	depth uint8
	base  int16
	n     int16
	aux   int16 // opCheck: its index in Code.checks
}

// finish derives everything computed from the frozen mask: the prefix
// sums behind allFrozen, the fast-SSC schedule and its checks.
// construct calls it; tests call it directly on hand-built masks.
func (c *Code) finish() {
	c.frozenUpTo = make([]int32, c.N+1)
	for i, f := range c.isFrozen {
		c.frozenUpTo[i+1] = c.frozenUpTo[i]
		if f {
			c.frozenUpTo[i+1]++
		}
	}
	c.schedule = c.schedule[:0]
	c.checks = c.checks[:0]
	c.emit(0, c.N, 0, c.punct, false)
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

func (c *Code) push(kind uint8, depth, base, n int) {
	c.schedule = append(c.schedule, nodeOp{kind: kind, depth: uint8(depth), base: int16(base), n: int16(n)})
}

// emit appends the schedule for the subtree [base, base+n) at depth,
// mirroring scDecode's control flow exactly — including the rate-0
// pruning that skips the f step, and the omitted combine when the right
// half is entirely frozen. The node's first taint LLRs can be punctured
// zeros (f ORs the halves' taint, g ANDs it); checked marks a subtree
// under a check.
func (c *Code) emit(base, n, depth, taint int, checked bool) {
	if k := c.classify(base, n); k != opBranch {
		c.push(k, depth, base, n)
		return
	}
	at, check := len(c.schedule), !checked && n >= minCheck && taint == 0
	if check {
		c.push(opCheck, depth, base, n)
	}
	half := n / 2
	leftZero := c.allFrozen(base, half)
	if leftZero {
		c.push(opRate0, depth+1, base, half)
	} else {
		c.push(opF, depth, base, n)
		c.emit(base, half, depth+1, min(taint, half), checked || check)
	}
	if c.allFrozen(base+half, half) {
		c.push(opRate0, depth+1, base+half, half)
	} else {
		g := opG
		if leftZero {
			g = opG0
		}
		c.push(g, depth, base, n)
		c.emit(base+half, half, depth+1, max(taint-half, 0), checked || check)
		c.push(opCombine, 0, base, n)
	}
	if check {
		c.schedule[at].aux = int16(len(c.checks))
		c.checks = append(c.checks, c.newCheck(base, n, len(c.schedule)))
	}
}

// newCheck builds the check of node [base, base+n) whose subtree ends
// at schedule index end. Its screens are the frozen positions i whose
// transform bit reads the fewest LLRs: 2^(zero bits of i).
func (c *Code) newCheck(base, n, end int) check {
	ck := check{end: end, frozen: make([]uint64, (n+63)/64)}
	for span := 1; span <= n; span *= 2 {
		for i := n - 1; i >= 0; i-- {
			if !c.isFrozen[base+i] || 1<<bits.OnesCount(uint((n-1)&^i)) != span {
				continue
			}
			ck.frozen[i/64] |= 1 << (i % 64)
			if span <= min(n/4, maxSpan) && len(ck.screen) < maxScreens {
				ck.screen = append(ck.screen, int16(i))
			}
		}
	}
	return ck
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
func (c *Code) nodeLLR(s *Workspace, depth, n int) []float64 {
	if depth == 0 {
		return s.chLLR
	}
	return s.levels[depth-1][:n]
}

// runSchedule executes the fast-SSC schedule over the scratch buffers,
// leaving the decoded codeword in s.sums and the information bits in
// s.u. Every information position belongs to exactly one terminal node
// (rate-1, repetition, SPC, or an info leaf under a generic branch), or
// to a check that hit, so each writes its own slice of s.u: repetition
// nodes place their single bit directly, while rate-1 and SPC nodes and
// checks invert their local partial sums with a size-n polar transform
// (the transform is an involution over GF(2)). Frozen positions are
// never read back by extract, so rate-0 nodes skip u entirely.
func (c *Code) runSchedule(s *Workspace) {
	sched := c.schedule
	for pc := 0; pc < len(sched); pc++ {
		op := sched[pc]
		base, n, depth := int(op.base), int(op.n), int(op.depth)
		switch op.kind {
		case opCheck:
			if end := c.check(s, op); end > 0 {
				pc = end - 1
			}
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

// rate1 hard-decides the rate-1 node [base, base+n) whose LLRs are v,
// exact by the induction above, and falls back to scDecode when one is
// ±0. NaNs would void it too, but DecodeInto's contract keeps them out
// of every buffer rate1 can see.
func (c *Code) rate1(s *Workspace, v []float64, base, n, depth int) {
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
		if !hardDecide(v, nil, out, s.u[base:][:n]) {
			c.scDecode(s, v, out, base, depth)
		}
	}
}

// check runs the codeword check op: its screens, then the full test.
// On a hit it writes the node's partial sums and input bits and
// returns the schedule index past the subtree; otherwise 0.
func (c *Code) check(s *Workspace, op nodeOp) int {
	ck := &c.checks[op.aux]
	base, n := int(op.base), int(op.n)
	v := c.nodeLLR(s, int(op.depth), n)[:n]
	b := asBits(v)
	for _, i := range ck.screen {
		free := (n - 1) &^ int(i)
		p := b[i]
		for sub := free; sub != 0; sub = (sub - 1) & free {
			p ^= b[int(i)|sub]
		}
		if p>>63 != 0 {
			return 0
		}
	}
	if !hardDecide(v, ck.frozen, s.sums[base:][:n], s.u[base:][:n]) {
		return 0
	}
	return ck.end
}

// hardDecide is the kernel of rate-1 nodes (nil frozen) and checks
// over len(v) ≥ 8 LLRs: unless an LLR is ±0 or the transform of the
// signs meets the frozen mask, it writes the signs to sums and their
// transform to u and reports true; only then does it unpack bytes.
// Word k of the transform reads only the words k' ⊇ k, so the words
// run from the top down and a violation returns at the first word.
func hardDecide(v []float64, frozen []uint64, sums, u []uint8) bool {
	var x, t [MaxN / 64]uint64
	b := asBits(v)
	nw := (len(b) + 63) / 64
	for k := nw - 1; k >= 0; k-- {
		w, nz := signWord(b[k*64 : min(len(b), k*64+64)])
		x[k] = w
		for j := k + 1; j < nw; j++ {
			if j&k == k {
				w ^= x[j]
			}
		}
		if t[k] = transformWord(w); nz>>63 == 0 || k < len(frozen) && t[k]&frozen[k] != 0 {
			return false
		}
	}
	unpack(sums, x[:nw])
	unpack(u, t[:nw])
	return true
}

// signWord packs the sign bits of up to 64 raw LLR words, a multiple
// of 8, LSB first. The top bit of nz is clear iff one of them is ±0.
func signWord(b []uint64) (w, nz uint64) {
	nz = ^uint64(0)
	for i := 0; i+8 <= len(b); i += 8 {
		g := b[i : i+8 : i+8]
		by := g[0]>>63 | g[1]>>63<<1 | g[2]>>63<<2 | g[3]>>63<<3 |
			g[4]>>63<<4 | g[5]>>63<<5 | g[6]>>63<<6 | g[7]>>63<<7
		w |= by << (i & 63)
		nz &= nonzero(g[0]) & nonzero(g[1]) & nonzero(g[2]) & nonzero(g[3]) &
			nonzero(g[4]) & nonzero(g[5]) & nonzero(g[6]) & nonzero(g[7])
	}
	return w, nz
}

// nonzero's top bit is set unless w encodes ±0 (y | -y has it iff y ≠ 0).
func nonzero(w uint64) uint64 {
	y := w << 1
	return y | -y
}

// transformWord is transform over bits packed LSB first. Bits above a
// node shorter than 64 are zero and stay so.
func transformWord(x uint64) uint64 {
	x ^= (x >> 1) & 0x5555555555555555
	x ^= (x >> 2) & 0x3333333333333333
	x ^= (x >> 4) & 0x0f0f0f0f0f0f0f0f
	x ^= (x >> 8) & 0x00ff00ff00ff00ff
	x ^= (x >> 16) & 0x0000ffff0000ffff
	return x ^ x>>32
}

// spread maps a byte to eight bytes holding its bits, LSB first.
var spread = func() (t [256]uint64) {
	for b := range t {
		for k := 0; k < 8; k++ {
			t[b] |= uint64(b>>k&1) << (8 * k)
		}
	}
	return t
}()

// unpack writes the bits of w into dst, one byte each; len(dst) % 8 == 0.
func unpack(dst []uint8, w []uint64) {
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], spread[uint8(w[i/64]>>(i%64))])
	}
}

// spc decodes a single-parity-check node (frozen only at base) by
// replaying scDecode's operation sequence: an f-cascade down to the
// size-2 repetition node, then per-level g, rate-1 hard decision, and
// combine on the way back up. Every float op matches the
// recursion's op on the same operands in the same buffers, so the
// result is bit-identical — including the rounding and tie cases a
// direct Wagner (min-|LLR| parity flip) decode would get wrong.
func (c *Code) spc(s *Workspace, buf []float64, base, n, depth int) {
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
