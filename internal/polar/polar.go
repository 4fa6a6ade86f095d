// Package polar implements the polar coding chain used by the 5G PDCCH
// (TS 38.212 §5.3.1): code construction, encoding, rate matching and a
// successive-cancellation (SC) list-free decoder operating on LLRs.
//
// Two documented deviations from the 3GPP text (see DESIGN.md §2):
//
//   - The information-bit reliability order is generated at runtime with
//     the β-expansion polarization-weight (PW) construction, β = 2^(1/4) —
//     the method 3GPP used to design its frozen master sequence — instead
//     of embedding the 1024-entry table from TS 38.212 §5.3.1.2.
//   - Rate matching uses prefix puncturing plus repetition (no shortening
//     branch and no sub-block interleaver). When the code is punctured,
//     the punctured input indices are force-frozen, which preserves the
//     essential property that a noiseless codeword always decodes exactly.
//
// Both sides of the simulated air interface (the gNB encoder and the
// NR-Scope blind decoder) use this package, exactly as both sides of a
// real deployment follow the same standard.
package polar

import (
	"fmt"
	"math"
	"sort"
)

// MaxN is the maximum mother code length for downlink polar codes
// (TS 38.212: N <= 512 for PDCCH).
const MaxN = 512

// Code is a polar code instance for a fixed (K, E) pair: K information
// bits (including any CRC the caller attached) rate-matched to E channel
// bits. Its construction is immutable: Encode allocates its buffers per
// call and DecodeWith runs in the caller's Workspace, so both may run on
// several goroutines at once. Decode and DecodeInto run in the Code's own
// Workspace, so they belong to one goroutine at a time.
type Code struct {
	K int // information bits in
	E int // rate-matched bits out
	N int // mother code length (power of two)

	punct      int     // number of punctured (untransmitted) leading coded bits
	infoPos    []int   // input indices carrying information, ascending
	isFrozen   []bool  // frozen mask over the N input positions
	frozenUpTo []int32 // prefix sums of isFrozen, length N+1 (rate-0 pruning)

	// schedule is the precomputed fast-SSC operation list (schedule.go):
	// the decode hot path is an iterative sweep over it instead of a
	// recursive tree walk. checks holds its codeword checks' data.
	schedule []nodeOp
	checks   []check

	ws Workspace // Decode and DecodeInto's, sized on first use
}

// NewCode constructs the polar code for K information bits rate-matched
// to E channel bits. It returns an error when the pair is infeasible
// (K < 1, E < K, or K exceeding the mother code capacity).
func NewCode(k, e int) (*Code, error) {
	if k < 1 {
		return nil, fmt.Errorf("polar: K = %d < 1", k)
	}
	if e < k {
		return nil, fmt.Errorf("polar: E = %d < K = %d (rate > 1)", e, k)
	}
	n := motherLength(k, e)
	if k > n {
		return nil, fmt.Errorf("polar: K = %d exceeds mother length N = %d", k, n)
	}
	c := &Code{K: k, E: e, N: n}
	if e < n {
		c.punct = n - e
	}
	if k > n-c.punct {
		return nil, fmt.Errorf("polar: K = %d exceeds usable length N-P = %d", k, n-c.punct)
	}
	c.construct()
	return c, nil
}

// motherLength picks N = 2^n: the smallest power of two covering E and K,
// clamped to [32, MaxN]. K > MaxN is rejected by NewCode (the downlink
// polar code does not exist beyond N = 512).
func motherLength(k, e int) int {
	n := 32
	for n < e && n < MaxN {
		n <<= 1
	}
	for n < k && n < MaxN {
		n <<= 1
	}
	return n
}

// Feasible reports whether a (K, E) polar code exists under the same
// rules NewCode enforces, without constructing it. Blind decoders use it
// to skip candidate positions whose aggregation level cannot carry the
// hypothesised payload at all (no transmission is possible there).
func Feasible(k, e int) bool {
	if k < 1 || e < k {
		return false
	}
	n := motherLength(k, e)
	if k > n {
		return false
	}
	punct := 0
	if e < n {
		punct = n - e
	}
	return k <= n-punct
}

// construct selects the frozen set: the punctured prefix indices are
// force-frozen (they are incapable — their coded bits are never sent),
// then the least reliable remaining positions are frozen until only K
// information positions remain. Reliability is the PW β-expansion weight.
func (c *Code) construct() {
	type posWeight struct {
		pos int
		w   float64
	}
	beta := math.Pow(2, 0.25)
	order := make([]posWeight, c.N)
	nBits := intLog2(c.N)
	for i := 0; i < c.N; i++ {
		w := 0.0
		for j := 0; j < nBits; j++ {
			if i>>uint(j)&1 == 1 {
				w += math.Pow(beta, float64(j))
			}
		}
		order[i] = posWeight{pos: i, w: w}
	}
	// Sort by descending reliability; ties broken by higher index (which
	// have higher polarization on average).
	sort.Slice(order, func(a, b int) bool {
		if order[a].w != order[b].w {
			return order[a].w > order[b].w
		}
		return order[a].pos > order[b].pos
	})

	c.isFrozen = make([]bool, c.N)
	for i := 0; i < c.punct; i++ {
		c.isFrozen[i] = true
	}
	c.infoPos = make([]int, 0, c.K)
	for _, pw := range order {
		if len(c.infoPos) == c.K {
			break
		}
		if pw.pos < c.punct {
			continue // force-frozen
		}
		c.infoPos = append(c.infoPos, pw.pos)
	}
	sort.Ints(c.infoPos)
	for i := range c.isFrozen {
		c.isFrozen[i] = true
	}
	for _, p := range c.infoPos {
		c.isFrozen[p] = false
	}
	// Prefix sums over the frozen mask (O(1) all-frozen tests) and the
	// fast-SSC node schedule both derive from the mask alone.
	c.finish()
}

// allFrozen reports whether every input position in [base, base+n) is
// frozen, i.e. the subtree is a rate-0 node whose partial sums are all
// zero regardless of the channel LLRs.
func (c *Code) allFrozen(base, n int) bool {
	return c.frozenUpTo[base+n]-c.frozenUpTo[base] == int32(n)
}

// Encode maps K information bits to E rate-matched channel bits.
// It panics if len(info) != K.
func (c *Code) Encode(info []uint8) []uint8 {
	if len(info) != c.K {
		panic(fmt.Sprintf("polar: Encode got %d bits, code has K = %d", len(info), c.K))
	}
	u := make([]uint8, c.N)
	for i, p := range c.infoPos {
		u[p] = info[i] & 1
	}
	transform(u)
	// Rate matching: drop the punctured prefix, then repeat cyclically
	// until E bits are emitted.
	out := make([]uint8, c.E)
	sent := c.N - c.punct
	for i := 0; i < c.E; i++ {
		out[i] = u[c.punct+i%sent]
	}
	return out
}

// transform applies the polar transform x = u · F^{⊗n} in place
// (no bit-reversal permutation).
func transform(u []uint8) {
	n := len(u)
	for length := 1; length < n; length <<= 1 {
		for i := 0; i < n; i += 2 * length {
			for j := 0; j < length; j++ {
				u[i+j] ^= u[i+j+length]
			}
		}
	}
}

// Workspace is the working memory of one decode: the channel-LLR, the
// per-depth LLR levels (levels[d] holds at least N >> (d+1) entries),
// the partial sums (the codeword) and the decided input bits. The zero
// Workspace is ready to use: the first DecodeWith sizes it for the
// longest mother code, MaxN, so one Workspace serves codes of every
// length without growing again. A Workspace is not safe for concurrent
// use.
type Workspace struct {
	chLLR  []float64
	levels [][]float64
	sums   []uint8
	u      []uint8
}

// fit grows w to hold the working memory of a length-n mother code.
func (w *Workspace) fit(n int) {
	if len(w.chLLR) >= n {
		return
	}
	w.chLLR = make([]float64, n)
	w.sums = make([]uint8, n)
	w.u = make([]uint8, n)
	w.levels = w.levels[:0]
	for m := n / 2; m >= 1; m /= 2 {
		w.levels = append(w.levels, make([]float64, m))
	}
}

// Decode runs successive-cancellation decoding over E channel LLRs
// (positive LLR means bit 0 more likely) and returns the K decoded
// information bits. It panics if len(llr) != E. It delegates to
// DecodeInto, so its only allocation is the K-bit result slice itself. The input contract is DecodeInto's.
func (c *Code) Decode(llr []float64) []uint8 {
	return c.DecodeInto(nil, llr)
}

// DecodeInto is Decode writing the K information bits into dst (reused
// when its capacity suffices, so steady-state decoding is allocation
// free). It returns the K-bit result slice. It is DecodeWith in the
// Code's own Workspace.
func (c *Code) DecodeInto(dst []uint8, llr []float64) []uint8 {
	return c.DecodeWith(&c.ws, dst, llr)
}

// DecodeWith is DecodeInto in the caller's Workspace ws, so callers that
// share a Code (the PDCCH decode plans of one cell) each keep their own.
//
// The decode is the iterative fast-SSC sweep (schedule.go): terminal
// nodes write their partial sums and recover their own input bits with
// a local polar transform (the transform is its own inverse over
// GF(2)), replacing the per-leaf u writes of recursive SC.
//
// Contract: every LLR is finite with magnitude at most 1e6
// (modulation.MaxLLR). modulation.DemapInto saturates every LLR it
// produces into that range (NaN to 0), and descrambling only flips
// signs, so the PDCCH chain always meets it. Under the contract a
// recovered LLR sums ⌈E/N⌉ inputs (at most 4 for PDCCH, E ≤ 1728) and a
// g cascade at most N of those, so every intermediate stays below
// ~2·10⁹, and the hard decisions are exactly those of float min-sum SC.
// Outside it DecodeWith still returns K bits, but which ones is
// unspecified.
func (c *Code) DecodeWith(ws *Workspace, dst []uint8, llr []float64) []uint8 {
	if len(ws.chLLR) < c.N {
		ws.fit(MaxN)
	}
	c.prepare(ws, llr)
	c.runSchedule(ws)
	return c.extract(dst, ws)
}

// prepare rate-recovers E channel LLRs into s.chLLR: punctured
// positions get LLR 0 (erasure); repeated positions accumulate. The
// first wrap assigns and later wraps add in whole runs, so the hot loop
// carries no per-bit modulo.
func (c *Code) prepare(s *Workspace, llr []float64) {
	if len(llr) != c.E {
		panic(fmt.Sprintf("polar: Decode got %d LLRs, code has E = %d", len(llr), c.E))
	}
	for i := 0; i < c.punct; i++ {
		s.chLLR[i] = 0
	}
	sent := c.N - c.punct
	dst := s.chLLR[c.punct:]
	first := c.E
	if first > sent {
		first = sent
	}
	copy(dst[:first], llr[:first])
	for i := first; i < sent; i++ {
		dst[i] = 0
	}
	for off := sent; off < c.E; off += sent {
		run := c.E - off
		if run > sent {
			run = sent
		}
		src := llr[off : off+run]
		for i := range src {
			dst[i] += src[i]
		}
	}
}

// extract copies the decided information bits out of s.u into dst.
func (c *Code) extract(dst []uint8, s *Workspace) []uint8 {
	if cap(dst) < c.K {
		dst = make([]uint8, c.K)
	}
	dst = dst[:c.K]
	for i, p := range c.infoPos {
		dst[i] = s.u[p]
	}
	return dst
}

// scDecode is recursive float min-sum SC: it processes the subtree
// whose LLRs are llr (length N>>depth) and whose leftmost leaf is input
// index base, writing the subtree's partial sums into out. The fast-SSC
// executor (schedule.go) calls it for a rate-1 node, or the rate-1 half
// of an SPC node, that holds an exact-zero LLR. In-contract inputs do
// produce those: a NaN symbol demaps to 0, a punctured position
// recovers to 0, and g computes b − a = 0 whenever b = a. The test
// oracle runs it over the whole tree.
func (c *Code) scDecode(s *Workspace, llr []float64, out []uint8, base, depth int) {
	n := len(llr)
	if n == 1 {
		var bit uint8
		if !c.isFrozen[base] && llr[0] < 0 {
			bit = 1
		}
		s.u[base] = bit
		out[0] = bit
		return
	}
	half := n / 2
	tmp := s.levels[depth][:half] // a grown Workspace holds more
	if c.allFrozen(base, half) {
		// Rate-0 left subtree: its bits and partial sums are all zero by
		// definition, so skip the f step and the recursion entirely. The
		// leaf decisions in s.u for those positions were zeroed when the
		// subtree was last visited with content — frozen positions are
		// never read back by DecodeInto, so only out must be cleared.
		for i := 0; i < half; i++ {
			out[i] = 0
		}
	} else {
		// f step: LLRs for the left subtree.
		for i := 0; i < half; i++ {
			tmp[i] = fLLR(llr[i], llr[i+half])
		}
		c.scDecode(s, tmp, out[:half], base, depth+1)
	}
	if c.allFrozen(base+half, half) {
		for i := half; i < n; i++ {
			out[i] = 0
		}
		return // combine is a no-op when the right half is all zero
	}
	// g step: LLRs for the right subtree given left partial sums.
	for i := 0; i < half; i++ {
		tmp[i] = gLLR(llr[i], llr[i+half], out[i])
	}
	c.scDecode(s, tmp, out[half:], base+half, depth+1)
	// Combine partial sums in place.
	for i := 0; i < half; i++ {
		out[i] ^= out[i+half]
	}
}

// fLLR is the min-sum check-node update: |result| = min(|a|, |b|),
// sign(result) = sign(a)·sign(b), computed branch-free on the IEEE 754
// bit patterns (Float64bits/frombits compile to plain register moves).
func fLLR(a, b float64) float64 {
	ab := math.Float64bits(a)
	bb := math.Float64bits(b)
	sign := (ab ^ bb) & (1 << 63)
	ab &^= 1 << 63
	bb &^= 1 << 63
	if bb < ab {
		ab = bb
	}
	return math.Float64frombits(ab | sign)
}

// gLLR is the variable-node update given the decoded upper bit.
func gLLR(a, b float64, u uint8) float64 {
	if u == 1 {
		return b - a
	}
	return b + a
}

func intLog2(n int) int {
	l := 0
	for 1<<uint(l) < n {
		l++
	}
	return l
}
