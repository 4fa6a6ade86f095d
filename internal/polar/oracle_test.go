package polar

import (
	"fmt"
	"math/rand"
	"testing"

	"nrscope/internal/modulation"
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
	s := c.getScratch()
	defer c.scratch.Put(s)
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
	c.scDecode(s, s.chLLR, s.sums, 0, 0)
	return c.extract(dst, s)
}

// codecShapes is every (K, E) shape the PDCCH codec can request: DCI
// payload sizes plus the 24-bit CRC over all five aggregation levels
// (E = AL·108), so the punctured, unpunctured and repeated rate
// matchings are all present, up to AL-16's E = 1728.
func codecShapes() [][2]int {
	var shapes [][2]int
	for _, k := range []int{30, 43, 54, 64, 84, 104, 128} {
		for _, al := range []int{1, 2, 4, 8, 16} {
			if e := al * 108; Feasible(k, e) {
				shapes = append(shapes, [2]int{k, e})
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
// all meet the schedule. The seeds run as part of plain go test.
func FuzzDecodeMatchesOracle(f *testing.F) {
	// data: shape index, gaussian seed, then one class byte per LLR
	// (low two bits the class, the top bit the sign, the rest the
	// gaussian scale), cycled over E.
	f.Add([]byte{0, 0})                                   // K=30 E=108, all-zero LLRs
	f.Add([]byte{3, 0, 1, 129, 1, 1, 129, 129, 1})        // ties
	f.Add([]byte{4, 7, 2, 6, 10, 130, 134, 2, 66})        // AL-16 gaussian
	f.Add([]byte{9, 0, 3, 131, 3, 3, 131})                // AL-16 saturated
	f.Add([]byte{12, 1, 0, 3, 131, 1, 2, 0, 129, 0, 254}) // every class mixed
	f.Add([]byte{20, 9, 2, 0, 0, 0, 3})                   // zero-heavy with a saturated spike
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
		rng := rand.New(rand.NewSource(int64(data[1])))
		src := data[2:]
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
