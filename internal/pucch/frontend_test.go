package pucch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nrscope/internal/bits"
	"nrscope/internal/convcode"
	"nrscope/internal/modulation"
)

// TestCodedBitsMatchesConvcode pins the front end's geometry: codedBits
// is the convolutional code's length for a UCI block, and the resource's
// channel LLRs cover it once and wrap at most once more, on a symbol
// boundary.
func TestCodedBitsMatchesConvcode(t *testing.T) {
	if n := convcode.CodedLen(blockBits); codedBits != n {
		t.Fatalf("codedBits = %d, convcode.CodedLen(%d) = %d", codedBits, blockBits, n)
	}
	if codedBits > resourceBits || resourceBits > 2*codedBits || codedBits%2 != 0 {
		t.Fatalf("%d channel LLRs onto %d coded bits: not one wrap on a symbol boundary", resourceBits, codedBits)
	}
}

// chainFrontEnd is the staged chain the fused front end replaced, kept
// as its oracle: DemapInto, DescrambleLLRInPlace, then convcode's cyclic
// rate recovery (coded bit i%codedBits accumulates channel LLR i, in
// order, from a cleared buffer). It returns the channel LLRs and the
// recovered decoder input.
func chainFrontEnd(syms *[resourceREs]complex128, seq *[resourceBits]uint8, n0 float64) ([]float64, [codedBits]float64) {
	llr := modulation.DemapInto(nil, modulation.QPSK, syms[:], n0)
	bits.DescrambleLLRInPlace(seq[:], llr)
	var rec [codedBits]float64
	for i, v := range llr {
		rec[i%codedBits] += v
	}
	return llr, rec
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

// FuzzQPSKFrontEndMatchesChain: raw float64 bits for every symbol
// component (the bytes repeat to fill the resource), an n0 from
// frontEndN0s and random scrambling bits; the fused front end must write
// the oracle chain's decoder input bit for bit, and the Viterbi decode
// of it must equal convcode.RecoverAndDecode of the chain's channel
// LLRs. The seeds run as part of plain go test.
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
	var w Workspace
	f.Fuzz(func(t *testing.T, n0Sel uint8, seed int64, data []byte) {
		n0 := frontEndN0s[int(n0Sel)%len(frontEndN0s)]
		rng := rand.New(rand.NewSource(seed))
		var seq [resourceBits]uint8
		for i := range seq {
			seq[i] = uint8(rng.Intn(2))
		}
		var raw [resourceREs * 16]byte
		for i := range raw {
			if len(data) > 0 {
				raw[i] = data[i%len(data)]
			}
		}
		for i := range w.syms {
			re := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
			w.syms[i] = complex(re, im)
		}
		llr, want := chainFrontEnd(&w.syms, &seq, n0)
		for i := range w.rec {
			w.rec[i] = nan // every slot must be written
		}
		w.frontEnd(&seq, n0)
		for i, v := range want {
			if math.Float64bits(w.rec[i]) != math.Float64bits(v) {
				t.Fatalf("n0 %v: coded bit %d = %v (%#x), chain %v (%#x)", n0, i, w.rec[i], math.Float64bits(w.rec[i]), v, math.Float64bits(v))
			}
		}
		if got, oracle := w.vit.Decode(w.rec[:], blockBits), convcode.RecoverAndDecode(llr, blockBits); !slices.Equal(got, oracle) {
			t.Fatalf("n0 %v: decoded %v, chain %v", n0, got, oracle)
		}
	})
}
