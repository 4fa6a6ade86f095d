package polar

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"math/rand"
	"slices"
	"testing"

	"nrscope/internal/bits"
	"nrscope/internal/modulation"
	"nrscope/internal/raceflag"
)

// newMaskCode builds an unpunctured code (E = N) with an arbitrary
// frozen mask — the property tests sweep masks NewCode's PW
// construction would never produce, so every constituent-node shape
// (and every guard fallback) gets exercised.
func newMaskCode(t *testing.T, frozen []bool) *Code {
	t.Helper()
	n := len(frozen)
	c := &Code{E: n, N: n}
	c.isFrozen = append([]bool(nil), frozen...)
	for i, f := range frozen {
		if !f {
			c.infoPos = append(c.infoPos, i)
		}
	}
	c.K = len(c.infoPos)
	if c.K == 0 {
		t.Fatal("mask froze every position")
	}
	c.finish()
	return c
}

// llrPatterns are the channel-LLR generators the equivalence tests
// sweep, all within DecodeInto's contract: each one targets a way the
// fast-SSC shortcuts could diverge from the float recursion (exact
// zeros, ties, saturated sums) plus plain noise.
var llrPatterns = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"gaussian", func(rng *rand.Rand, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 4
		}
		return v
	}},
	{"ties", func(rng *rand.Rand, n int) []float64 {
		// Equal magnitudes everywhere: every f min is a tie.
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(1 - 2*rng.Intn(2))
		}
		return v
	}},
	{"zero-heavy", func(rng *rand.Rand, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(3) == 0 {
				v[i] = 0
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}},
	{"saturated", func(rng *rand.Rand, n int) []float64 {
		// The largest magnitudes the contract admits; at AL-16's E every
		// mother position sums four of them.
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Copysign(modulation.MaxLLR, rng.NormFloat64())
		}
		return v
	}},
	{"demapped-garbage", func(rng *rand.Rand, n int) []float64 {
		// What the PDCCH chain hands the decoder for unreadable symbols:
		// QPSK demap of NaN, ±Inf, huge and zero components at degenerate
		// noise variances, then descrambled.
		vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308, 0, 0.3, -0.3}
		syms := make([]complex128, n/2)
		for i := range syms {
			syms[i] = complex(vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
		}
		n0 := []float64{0, math.NaN(), 1e-300}[rng.Intn(3)]
		v := modulation.DemapInto(make([]float64, 0, n), modulation.QPSK, syms, n0)
		bits.DescrambleLLRInPlace(randomBits(rng, len(v)), v)
		return v
	}},
	{"all-zero", func(rng *rand.Rand, n int) []float64 {
		return make([]float64, n)
	}},
}

// checkEquivalence runs every LLR pattern through the fast-SSC path and
// the test oracle and requires bit-identical decisions.
func checkEquivalence(t *testing.T, c *Code, rng *rand.Rand, trials int, label string) {
	t.Helper()
	for _, pat := range llrPatterns {
		for trial := 0; trial < trials; trial++ {
			requireOracle(t, c, pat.gen(rng, c.E), fmt.Sprintf("%s pattern %s trial %d", label, pat.name, trial))
		}
	}
}

// TestFastSSCMatchesReferenceRandomMasks sweeps random frozen masks at
// every mother length and freeze density, so rate-0/rate-1/repetition/
// SPC nodes appear at every size and position — including shapes the PW
// construction never yields (info at an even position of a pair, lone
// frozen bits deep in rate-1 regions).
func TestFastSSCMatchesReferenceRandomMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	for _, n := range []int{32, 64, 128, 256, 512} {
		for _, density := range []float64{0.1, 0.3, 0.5, 0.8, 0.95} {
			for mask := 0; mask < 4; mask++ {
				frozen := make([]bool, n)
				info := 0
				for i := range frozen {
					frozen[i] = rng.Float64() < density
					if !frozen[i] {
						info++
					}
				}
				if info == 0 {
					frozen[rng.Intn(n)] = false
				}
				c := newMaskCode(t, frozen)
				checkEquivalence(t, c, rng, 3,
					fmt.Sprintf("n=%d density=%.2f mask=%d", n, density, mask))
			}
		}
	}
}

// TestFastSSCMatchesReferenceCodecShapes covers every codec (K, E)
// shape: real punctured/repeated rate-matched codes rather than the
// E = N masks above.
func TestFastSSCMatchesReferenceCodecShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, ke := range codecShapes() {
		c, err := NewCode(ke[0], ke[1])
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, c, rng, 2, "codec shape")
	}
}

// TestFastSSCRoundTrip: noiseless codewords decode exactly through the
// schedule path for every codec shape (the involution-based bit
// recovery must invert the partial sums correctly).
func TestFastSSCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dst []uint8
	for _, k := range []int{54, 64, 84, 104} {
		for _, al := range []int{1, 2, 4, 8, 16} {
			e := al * 108
			if !Feasible(k, e) {
				continue
			}
			c, err := NewCode(k, e)
			if err != nil {
				t.Fatal(err)
			}
			info := randomBits(rng, k)
			dst = c.DecodeInto(dst, bpskLLR(c.Encode(info), 6))
			for i := range info {
				if dst[i] != info[i] {
					t.Fatalf("K=%d E=%d: round-trip bit %d flipped", k, e, i)
				}
			}
		}
	}
}

// nearCodeword returns the BPSK image of a random codeword of c,
// perturbed the ways a codeword check could be fooled: magnitudes all
// tied or drawn at random, then 0–3 sign flips, a ±0, and ±MaxLLR
// spikes, each independently present or not.
func nearCodeword(rng *rand.Rand, c *Code) []float64 {
	llr := bpskLLR(c.Encode(randomBits(rng, c.K)), 1)
	tied := rng.Intn(2) == 0
	for i := range llr {
		if !tied {
			llr[i] *= 0.25 + 8*rng.Float64()
		}
	}
	for f := rng.Intn(4); f > 0; f-- {
		llr[rng.Intn(len(llr))] *= -1
	}
	if rng.Intn(2) == 0 {
		llr[rng.Intn(len(llr))] = math.Copysign(0, float64(rng.Intn(2))-0.5)
	}
	for f := rng.Intn(3); f > 0; f-- {
		i := rng.Intn(len(llr))
		llr[i] = math.Copysign(modulation.MaxLLR, llr[i])
	}
	return llr
}

// TestFastSSCMatchesReferenceNearCodewords holds the codeword checks to
// the oracle where they decide: on codewords and on inputs a few sign
// flips, a zero or a tie away from one, over every codec shape and
// over random masks, whose unpunctured roots are checked whole.
func TestFastSSCMatchesReferenceNearCodewords(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	var codes []*Code
	for _, ke := range codecShapes() {
		c, err := NewCode(ke[0], ke[1])
		if err != nil {
			t.Fatal(err)
		}
		codes = append(codes, c)
	}
	for _, n := range []int{32, 64, 128, 256, 512} {
		for _, density := range []float64{0.3, 0.6, 0.9} {
			frozen := make([]bool, n)
			for i := range frozen {
				frozen[i] = rng.Float64() < density
			}
			frozen[n-1] = false
			codes = append(codes, newMaskCode(t, frozen))
		}
	}
	for _, c := range codes {
		for trial := 0; trial < 40; trial++ {
			requireOracle(t, c, nearCodeword(rng, c), fmt.Sprintf("near-codeword trial %d", trial))
		}
	}
}

// TestCheckPlacement pins the rules that keep a missed check cheap: a
// check sits only on a branch node of at least minCheck positions whose
// LLRs cannot hold a punctured zero, never inside another check's
// subtree, its screens are frozen positions that read few LLRs, and its
// jump lands just past that subtree. Taint is derived here by running
// the recursion's arithmetic on magnitudes — 0 for a punctured
// position, 1 otherwise, f = min, g = sum — so a node LLR is 0 exactly
// when a punctured zero reaches it.
func TestCheckPlacement(t *testing.T) {
	for _, ke := range codecShapes() {
		c, err := NewCode(ke[0], ke[1])
		if err != nil {
			t.Fatal(err)
		}
		reach := map[[3]int][]float64{} // (base, n, depth) -> node magnitudes
		var walk func(v []float64, base, depth int)
		walk = func(v []float64, base, depth int) {
			reach[[3]int{base, len(v), depth}] = v
			if len(v) == 1 {
				return
			}
			half := len(v) / 2
			l, r := make([]float64, half), make([]float64, half)
			for i := range l {
				l[i] = math.Min(v[i], v[i+half])
				r[i] = v[i] + v[i+half]
			}
			walk(l, base, depth+1)
			walk(r, base+half, depth+1)
		}
		root := make([]float64, c.N)
		for i := c.punct; i < c.N; i++ {
			root[i] = 1
		}
		walk(root, 0, 0)
		for pc, op := range c.schedule {
			if op.kind != opCheck {
				continue
			}
			base, n, depth := int(op.base), int(op.n), int(op.depth)
			where := fmt.Sprintf("K=%d E=%d check [%d,%d)", c.K, c.E, base, base+n)
			if n < minCheck || c.classify(base, n) != opBranch {
				t.Errorf("%s: not a branch node of at least %d positions", where, minCheck)
			}
			if slices.Contains(reach[[3]int{base, n, depth}], 0) {
				t.Errorf("%s: a punctured zero reaches its LLRs", where)
			}
			for _, i := range c.checks[op.aux].screen {
				if reads := 1 << mathbits.OnesCount(uint((n-1)&^int(i))); !c.isFrozen[base+int(i)] || reads > min(n/4, maxSpan) {
					t.Errorf("%s: screen %d is not frozen or reads %d LLRs", where, i, reads)
				}
			}
			end := c.checks[op.aux].end
			for _, in := range c.schedule[pc+1 : end] {
				if int(in.base) < base || int(in.base+in.n) > base+n {
					t.Errorf("%s: op over [%d,%d) inside its jump", where, in.base, in.base+in.n)
				}
				if in.kind == opCheck {
					t.Errorf("%s: nested check at [%d,%d)", where, in.base, in.base+in.n)
				}
			}
			if end < len(c.schedule) {
				if next := c.schedule[end]; int(next.base) >= base && int(next.base+next.n) <= base+n {
					t.Errorf("%s: jump lands inside its subtree", where)
				}
			}
		}
	}
}

// TestScheduleCoversAllKinds: the DCI-shaped codes must actually
// contain specialized nodes and codeword checks — if classification
// regressed to emitting only generic branches, the speedup claim would
// silently evaporate.
func TestScheduleCoversAllKinds(t *testing.T) {
	counts := map[uint8]int{}
	for _, ke := range [][2]int{{64, 432}, {104, 864}, {54, 108}, {69, 108}, {62, 432}} {
		c, err := NewCode(ke[0], ke[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range c.schedule {
			counts[op.kind]++
		}
	}
	for kind, name := range map[uint8]string{opRate0: "rate-0", opRate1: "rate-1", opRep: "repetition", opSPC: "SPC", opCheck: "codeword check"} {
		if counts[kind] == 0 {
			t.Errorf("no %s nodes scheduled across the DCI shapes", name)
		}
	}
}

// TestDecodeSingleAlloc: the convenience Decode must allocate exactly
// its result slice once the scratch pool is warm.
func TestDecodeSingleAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	c, err := NewCode(64, 432)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	llr := bpskLLR(c.Encode(randomBits(rng, c.K)), 8)
	c.Decode(llr) // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		c.Decode(llr)
	})
	if allocs > 1 {
		t.Fatalf("Decode allocates %.1f times per call, want 1 (the result slice)", allocs)
	}
}

// benchInput is one benchmark arm's code and channel LLRs.
type benchInput struct {
	name string
	c    *Code
	llr  []float64
}

// benchInputs are the channel LLRs the polar benchmarks decode. The
// gate shapes (64,432), (104,864) and (54,108) keep their single
// input, a codeword plus N(0,1) at amplitude 8, under their original
// names. The live shapes (69,108), the UE-specific DCI over one CCE,
// and (62,432), the fallback DCI at AL 4, each get three: llr=clean
// (the same codeword + noise, which every codeword check accepts),
// llr=noisy (amplitude 2, about 2 % sign errors) and llr=noise
// (Gaussian LLRs, no codeword: every check misses).
func benchInputs(rng *rand.Rand) []benchInput {
	noisy := func(c *Code, amp float64) []float64 {
		llr := bpskLLR(c.Encode(randomBits(rng, c.K)), amp)
		for i := range llr {
			llr[i] += rng.NormFloat64()
		}
		return llr
	}
	var out []benchInput
	for _, ke := range [][2]int{{64, 432}, {104, 864}, {54, 108}, {69, 108}, {62, 432}} {
		c, err := NewCode(ke[0], ke[1])
		if err != nil {
			panic(err)
		}
		name := fmt.Sprintf("k=%d/e=%d", c.K, c.E)
		if ke[0] != 69 && ke[0] != 62 {
			out = append(out, benchInput{name, c, noisy(c, 8)})
			continue
		}
		noise := make([]float64, c.E)
		for i := range noise {
			noise[i] = rng.NormFloat64() * 4
		}
		out = append(out,
			benchInput{name + "/llr=clean", c, noisy(c, 8)},
			benchInput{name + "/llr=noisy", c, noisy(c, 2)},
			benchInput{name + "/llr=noise", c, noise})
	}
	return out
}

// BenchmarkPolarSC is the CI-gated SC-pass comparison: the fast-SSC
// schedule sweep must beat recursive SC (scDecode) by >= 2x at
// 0 allocs/op on k=64/e=432 (cmd/benchgate over BENCH_polar.json). Rate
// recovery runs once outside the timer (neither decoder mutates the
// channel LLRs), so the ratio measures the SC pass in isolation.
func BenchmarkPolarSC(b *testing.B) {
	for _, in := range benchInputs(rand.New(rand.NewSource(11))) {
		c := in.c
		arms := []struct {
			name string
			pass func(s *Workspace)
		}{
			{"reference", func(s *Workspace) { c.scDecode(s, s.chLLR[:c.N], s.sums[:c.N], 0, 0) }},
			{"fastssc", func(s *Workspace) { c.runSchedule(s) }},
		}
		for _, arm := range arms {
			b.Run(in.name+"/impl="+arm.name, func(b *testing.B) {
				s := &c.ws
				s.fit(MaxN)
				c.prepare(s, in.llr)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					arm.pass(s)
				}
			})
		}
	}
}

// BenchmarkPolarDecodeInto measures the full codec-facing call — rate
// recovery + SC pass + bit extraction — the number the slot loop
// actually pays per candidate, against the test oracle doing the same.
func BenchmarkPolarDecodeInto(b *testing.B) {
	for _, in := range benchInputs(rand.New(rand.NewSource(12))) {
		c := in.c
		arms := []struct {
			name string
			fn   func(dst []uint8, llr []float64) []uint8
		}{
			{"reference", c.decodeReferenceInto},
			{"fastssc", c.DecodeInto},
		}
		for _, arm := range arms {
			b.Run(in.name+"/impl="+arm.name, func(b *testing.B) {
				dst := make([]uint8, c.K)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = arm.fn(dst, in.llr)
				}
			})
		}
	}
}
