package pdcch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"nrscope/internal/bits"
	"nrscope/internal/modulation"
	"nrscope/internal/phy"
)

// chainFrontEnd is the staged chain the fused front end replaced, kept
// as its oracle: gather the data REs, DemapInto, DescrambleLLRInPlace.
// The polar decoder takes the result as is (a copy), rate-recovering it
// itself.
func chainFrontEnd(g *phy.Grid, data []phy.RE, scr []uint8, n0 float64) []float64 {
	syms := make([]complex128, len(data))
	for k, re := range data {
		syms[k] = g.At(re.Symbol, re.Subcarrier)
	}
	llr := modulation.DemapInto(nil, modulation.QPSK, syms, n0)
	bits.DescrambleLLRInPlace(scr, llr)
	return llr
}

// frontEndN0s are the noise variances the fuzzer picks from: the
// clamped ones (zero, negative, NaN), the floor itself, a typical one
// and a huge one.
var frontEndN0s = [...]float64{0, -1, math.NaN(), modulation.MinN0, 0.1, 1e6}

// rawSymbols packs symbols as the raw little-endian float64 bits of their
// I and Q components, the fuzzer's symbol format.
func rawSymbols(syms ...complex128) []byte {
	var b []byte
	for _, v := range syms {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(v)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(v)))
	}
	return b
}

// FuzzQPSKFrontEndMatchesChain: a candidate position and scrambling bits
// drawn from the seed, raw float64 bits for every symbol component of
// its data REs (the bytes repeat to fill them) and an n0 from
// frontEndN0s; the fused front end must write the oracle chain's polar
// input bit for bit. The seeds run as part of plain go test.
func FuzzQPSKFrontEndMatchesChain(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	denorm := math.SmallestNonzeroFloat64
	// The symbol amplitude at which the LLR reaches MaxLLR under the
	// floored n0, and its float neighbours.
	edge := modulation.MaxLLR / modulation.QPSKScale(modulation.MinN0)
	f.Add(uint8(4), int64(1), rawSymbols(complex(0.7, -0.7), complex(-0.7, 0.7)))
	f.Add(uint8(0), int64(2), rawSymbols(complex(nan, inf), complex(-inf, 0), complex(negZero, negZero)))
	f.Add(uint8(1), int64(3), rawSymbols(complex(denorm, -denorm), complex(0, negZero)))
	f.Add(uint8(2), int64(4), rawSymbols(complex(1e308, -1e308), complex(0.3, nan)))
	f.Add(uint8(3), int64(5), rawSymbols(complex(edge, -edge), complex(math.Nextafter(edge, inf), math.Nextafter(-edge, 0))))
	f.Add(uint8(5), int64(6), rawSymbols(complex(1e11, -4e11), complex(negZero, 2.2e-308)))
	f.Add(uint8(3), int64(7), rawSymbols(complex(negZero, 0)))
	f.Add(uint8(4), int64(8), []byte{})
	cs := coreset()
	tab := newTable(cs)
	f.Fuzz(func(t *testing.T, n0Sel uint8, seed int64, data []byte) {
		n0 := frontEndN0s[int(n0Sel)%len(frontEndN0s)]
		rng := rand.New(rand.NewSource(seed))
		al := phy.AggregationLevels[rng.Intn(len(phy.AggregationLevels))]
		if al > tab.nCCE {
			al = tab.nCCE
		}
		res := tab.span(cs, al, rng.Intn(tab.nCCE-al+1)).data
		scr := randomBits(rng, 2*len(res))
		g := phy.NewGrid(51)
		raw := make([]byte, 16*len(res))
		for i := range raw {
			if len(data) > 0 {
				raw[i] = data[i%len(data)]
			}
		}
		for k, re := range res {
			v := complex(math.Float64frombits(binary.LittleEndian.Uint64(raw[16*k:])),
				math.Float64frombits(binary.LittleEndian.Uint64(raw[16*k+8:])))
			g.Set(re.Symbol, re.Subcarrier, v)
		}
		want := chainFrontEnd(g, res, scr, n0)
		llr := make([]float64, len(want))
		for i := range llr {
			llr[i] = nan // every slot must be written
		}
		frontEnd(llr, g, res, scr, n0)
		for i, v := range want {
			if math.Float64bits(llr[i]) != math.Float64bits(v) {
				t.Fatalf("AL %d n0 %v: LLR %d = %v (%#x), chain %v (%#x)", al, n0, i, llr[i], math.Float64bits(llr[i]), v, math.Float64bits(v))
			}
		}
	})
}
