package polar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nrscope/internal/dci"
	"nrscope/internal/modulation"
	"nrscope/internal/phy"
)

// decodeReferenceInto is the test oracle the fast-SSC schedule is held
// to: rate recovery written as its definition (punctured positions 0,
// each channel LLR added onto mother position punct + i mod (N-punct),
// the first wrap assigning), then recursive float min-sum SC over the
// whole tree.
func (c *Code) decodeReferenceInto(dst []uint8, llr []float64) []uint8 {
	if len(llr) != c.E {
		panic(fmt.Sprintf("polar: oracle got %d LLRs, code has E = %d", len(llr), c.E))
	}
	s := &c.ws
	s.fit(MaxN)
	for i := 0; i < c.punct; i++ {
		s.chLLR[i] = 0
	}
	sent := c.N - c.punct
	for i, v := range llr {
		j := c.punct + i%sent
		if i < sent {
			s.chLLR[j] = v
		} else {
			s.chLLR[j] += v
		}
	}
	c.scDecode(s, s.chLLR[:c.N], s.sums[:c.N], 0, 0)
	return c.extract(dst, s)
}

// codecShapes is every (K, E) shape the PDCCH codec requests, live
// shapes first: the fallback and non-fallback DCI payload sizes plus
// the 24-bit CRC, at the DCI configs of the preset cells (20 MHz at
// 30 kHz, 10 and 15 MHz at 15 kHz; the CORESET spans at most 48 PRBs),
// then a spread of other payload sizes. Every K runs over all five
// aggregation levels (E = AL·108), so the punctured, unpunctured and
// repeated rate matchings are all present, up to AL-16's E = 1728. The
// default cell's shapes, (69, 108) and (62, 432) among them, come
// first.
func codecShapes() [][2]int {
	var ks []int
	for _, bw := range []struct {
		mhz int
		mu  phy.Numerology
	}{{20, phy.Mu1}, {10, phy.Mu0}, {15, phy.Mu0}} {
		prbs, err := phy.PRBsForBandwidth(bw.mhz, bw.mu)
		if err != nil {
			panic(err)
		}
		coreset := min(prbs-prbs%phy.REGsPerCCE, 48)
		rows := len(phy.DefaultTimeAllocTable)
		data := dci.Config{BWPPRBs: prbs, TimeAllocRows: rows, MaxHARQ: 16}
		common := dci.Config{BWPPRBs: coreset, TimeAllocRows: rows, MaxHARQ: 16}
		ks = append(ks,
			dci.ClassSize(dci.NonFallback, data)+24,
			dci.ClassSize(dci.Fallback, common)+24,
			dci.ClassSize(dci.Fallback, data)+24)
	}
	ks = append(ks, 30, 43, 54, 84, 104, 128)
	var shapes [][2]int
	seen := map[[2]int]bool{}
	for _, k := range ks {
		for _, al := range []int{1, 2, 4, 8, 16} {
			ke := [2]int{k, al * 108}
			if Feasible(ke[0], ke[1]) && !seen[ke] {
				seen[ke] = true
				shapes = append(shapes, ke)
			}
		}
	}
	return shapes
}

// requireOracle decodes llr with the fast-SSC path and the oracle and
// fails on the first differing information bit.
func requireOracle(t *testing.T, c *Code, llr []float64, what string) {
	t.Helper()
	fast := c.DecodeInto(nil, llr)
	ref := c.decodeReferenceInto(nil, llr)
	for i := range ref {
		if fast[i] != ref[i] {
			t.Fatalf("K=%d E=%d %s: info bit %d: fast=%d oracle=%d", c.K, c.E, what, i, fast[i], ref[i])
		}
	}
}

// FuzzDecodeMatchesOracle: bytes -> (codec shape, in-contract LLRs), the
// fast-SSC decode and the oracle must agree on every information bit.
// Each LLR byte picks one of 0, ±1 (ties), a gaussian draw or
// ±MaxLLR, so exact zeros, tied f minima and saturated repetition sums
// all meet the schedule. Those almost never form a codeword, so a
// second class starts from one and perturbs a few LLRs, which drives
// the codeword checks down both branches. The seeds run as part of
// plain go test.
func FuzzDecodeMatchesOracle(f *testing.F) {
	// data: shape index, then a mode byte. Mode bit 7 clear: the low
	// bits seed the gaussian draws, and one class byte per LLR follows
	// (low two bits the class, the top bit the sign, the rest the
	// gaussian scale), cycled over E. Mode bit 7 set: the LLRs are the
	// BPSK image of a random codeword (bits seeded by the low six
	// bits), magnitudes all 1 (ties) when bit 6 is set, else drawn from
	// [0.25, 8.25); then each byte pair (position, kind) perturbs one
	// LLR, the position scaled over E and the kind's low two bits a
	// sign flip, a ±0 (the kind's top bit the sign), ±MaxLLR or
	// magnitude 1.
	f.Add([]byte{0, 0})                                   // (69,108), all-zero LLRs
	f.Add([]byte{3, 0, 1, 129, 1, 1, 129, 129, 1})        // (69,864), ties
	f.Add([]byte{4, 7, 2, 6, 10, 130, 134, 2, 66})        // AL-16 gaussian
	f.Add([]byte{9, 0, 3, 131, 3, 3, 131})                // AL-16 saturated
	f.Add([]byte{12, 1, 0, 3, 131, 1, 2, 0, 129, 0, 254}) // every class mixed
	f.Add([]byte{20, 9, 2, 0, 0, 0, 3})                   // zero-heavy with a saturated spike
	f.Add([]byte{0, 128})                                 // (69,108) codeword
	f.Add([]byte{0, 129, 250, 0})                         // (69,108) codeword, one flip at a reliable position
	f.Add([]byte{7, 129, 250, 0})                         // (62,432) codeword, one flip
	f.Add([]byte{0, 194, 250, 1, 17, 129})                // tied codeword, a +0 and a -0
	f.Add([]byte{2, 131, 90, 2, 91, 3, 5, 0, 240, 0})     // (69,432): MaxLLR, a tie, two flips
	f.Add([]byte{5, 255, 0, 1, 255, 2})                   // tied (62,108): zero and spike at the ends
	shapes := codecShapes()
	codes := make(map[int]*Code)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		idx := int(data[0]) % len(shapes)
		c := codes[idx]
		if c == nil {
			var err error
			if c, err = NewCode(shapes[idx][0], shapes[idx][1]); err != nil {
				t.Fatal(err)
			}
			codes[idx] = c
		}
		mode, src := data[1], data[2:]
		if mode&0x80 != 0 {
			requireOracle(t, c, perturbedCodeword(c, mode, src), "fuzz codeword")
			return
		}
		rng := rand.New(rand.NewSource(int64(mode)))
		llr := make([]float64, c.E)
		for i := range llr {
			if len(src) == 0 {
				break
			}
			b := src[i%len(src)]
			sign := 1.0
			if b&0x80 != 0 {
				sign = -1
			}
			switch b & 3 {
			case 1:
				llr[i] = sign
			case 2:
				llr[i] = rng.NormFloat64() * float64(1+int(b>>2&0x1f))
			case 3:
				llr[i] = sign * modulation.MaxLLR
			}
		}
		requireOracle(t, c, llr, "fuzz")
	})
}

// perturbedCodeword builds the fuzzer's codeword-class LLRs; see
// FuzzDecodeMatchesOracle for the encoding of mode and src.
func perturbedCodeword(c *Code, mode byte, src []byte) []float64 {
	rng := rand.New(rand.NewSource(int64(mode & 0x3f)))
	llr := bpskLLR(c.Encode(randomBits(rng, c.K)), 1)
	if mode&0x40 == 0 {
		for i := range llr {
			llr[i] *= 0.25 + 8*rng.Float64()
		}
	}
	for ; len(src) >= 2; src = src[2:] {
		i, kind := int(src[0])*c.E/256, src[1]
		switch kind & 3 {
		case 0:
			llr[i] = -llr[i]
		case 1:
			llr[i] = math.Copysign(0, float64(kind>>7)-0.5)
		case 2:
			llr[i] = math.Copysign(modulation.MaxLLR, llr[i])
		case 3:
			llr[i] = math.Copysign(1, llr[i])
		}
	}
	return llr
}
