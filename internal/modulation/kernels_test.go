package modulation

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nrscope/internal/raceflag"
)

// pamAxis is one scheme's per-axis Gray PAM enumeration: the normalised
// level of every label value, and the label's bits MSB-first.
type pamAxis struct {
	levels []float64
	labels [][]uint8
}

// pamAxes holds the enumeration of every scheme, indexed by pamBits.
var pamAxes = func() (t [5]pamAxis) {
	for _, s := range allSchemes {
		half := s.pamBits()
		n := 1 << uint(half)
		a := pamAxis{levels: make([]float64, n), labels: make([][]uint8, n)}
		for v := 0; v < n; v++ {
			bits := make([]uint8, half)
			for j := 0; j < half; j++ {
				bits[j] = uint8(v>>uint(half-1-j)) & 1
			}
			a.levels[v] = grayPAM(bits) * s.norm()
			a.labels[v] = bits
		}
		t[half] = a
	}
	return t
}()

// pamTable returns the normalised PAM levels of one axis with their bit
// labels.
func pamTable(s Scheme) (levels []float64, labels [][]uint8) {
	a := pamAxes[s.pamBits()]
	return a.levels, a.labels
}

// demapAxis is the generic max-log level scan: for each bit of one axis,
// the squared distance to the nearest label-0 and label-1 level. It
// writes out[offset], out[offset+2], ... (the I/Q bit interleave).
func demapAxis(y float64, levels []float64, labels [][]uint8, half int, n0 float64, out []float64, offset int) {
	for b := 0; b < half; b++ {
		best0 := math.Inf(1)
		best1 := math.Inf(1)
		for li, lv := range levels {
			d := y - lv
			m := d * d
			if labels[li][b] == 0 {
				if m < best0 {
					best0 = m
				}
			} else if m < best1 {
				best1 = m
			}
		}
		out[offset+2*b] = (best1 - best0) / n0
	}
}

// demapReference is the oracle DemapInto is held to bit for bit: the
// QPSK closed form plus the demapAxis level scan for the QAM schemes,
// under the same n0 floor and LLR saturation policy. It is also the
// baseline arm of BenchmarkDemap, which CI's demap gate checks the
// closed-form kernels against.
func demapReference(dst []float64, s Scheme, symbols []complex128, n0 float64) []float64 {
	if !(n0 >= MinN0) { // the negated form also catches NaN
		n0 = MinN0
	}
	qm := s.BitsPerSymbol()
	if cap(dst) < len(symbols)*qm {
		dst = make([]float64, len(symbols)*qm)
	}
	dst = dst[:len(symbols)*qm]
	if s == QPSK {
		scale := 4 * qpskAmp / n0
		for k, sym := range symbols {
			dst[2*k] = saturate(scale * real(sym))
			dst[2*k+1] = saturate(scale * imag(sym))
		}
		return dst
	}
	half := s.pamBits()
	levels, labels := pamTable(s)
	for k, sym := range symbols {
		demapAxis(real(sym), levels, labels, half, n0, dst[k*qm:], 0)
		demapAxis(imag(sym), levels, labels, half, n0, dst[k*qm:], 1)
	}
	for i, v := range dst {
		dst[i] = saturate(v)
	}
	return dst
}

// isFinite reports whether v is a finite float64.
func isFinite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// requireOracle demaps syms with DemapInto and the oracle and fails on
// the first LLR whose bits differ or that escapes the saturation range.
func requireOracle(t *testing.T, s Scheme, syms []complex128, n0 float64, what string) {
	t.Helper()
	got := DemapInto(nil, s, syms, n0)
	want := demapReference(nil, s, syms, n0)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%v n=%d n0=%g %s: LLR %d kernel %v != oracle %v", s, len(syms), n0, what, i, got[i], want[i])
		}
		if !isFinite(got[i]) || math.Abs(got[i]) > MaxLLR {
			t.Fatalf("%v n=%d n0=%g %s: LLR %d = %v escapes saturation", s, len(syms), n0, what, i, got[i])
		}
	}
}

// TestKernelsMatchOracle is the golden-equivalence property test: over
// every scheme, a spread of symbol counts and a sweep of noise variances
// (including one below the MinN0 floor), the closed-form kernels must
// reproduce the level-scan oracle bit for bit.
func TestKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n0s := []float64{1e-9, 1e-3, 0.01, 0.3, 1.0, 7.5}
	for _, s := range allSchemes {
		for _, n := range []int{1, 63, 64, 65, 197} {
			for _, n0 := range n0s {
				syms := make([]complex128, n)
				for i := range syms {
					// Mix constellation-scale and wild amplitudes so the
					// saturation path is covered too.
					amp := 1.0
					if rng.Intn(8) == 0 {
						amp = 1e7
					}
					syms[i] = complex(rng.NormFloat64()*amp, rng.NormFloat64()*amp)
				}
				requireOracle(t, s, syms, n0, "grid")
			}
		}
	}
}

// TestKernelsMatchOracleRandomSNRs drives the same equivalence with
// randomised SNRs and symbol counts, as a guard against shapes the fixed
// grid above misses.
func TestKernelsMatchOracleRandomSNRs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		s := allSchemes[rng.Intn(len(allSchemes))]
		n := 1 + rng.Intn(256)
		n0 := math.Pow(10, rng.Float64()*6-4) // 1e-4 .. 1e2
		requireOracle(t, s, noisySymbols(rng, n), n0, fmt.Sprintf("trial %d", trial))
	}
}

// symbolBytes packs symbols as the raw little-endian float64 bits of
// their I and Q components, FuzzDemapMatchesOracle's input format.
func symbolBytes(syms ...complex128) []byte {
	var b []byte
	for _, v := range syms {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(v)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(v)))
	}
	return b
}

// FuzzDemapMatchesOracle: raw float64 bits for n0 and every symbol
// component, NaN, ±Inf, denormals and overflow-scale values included;
// DemapInto must equal the level-scan oracle bit for bit and stay within
// ±MaxLLR. The seeds run as part of plain go test.
func FuzzDemapMatchesOracle(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	denorm := math.SmallestNonzeroFloat64
	f.Add(uint8(0), math.Float64bits(0.3), symbolBytes(complex(0.7, -0.7), complex(-0.2, 1.1)))
	f.Add(uint8(1), math.Float64bits(0), symbolBytes(complex(nan, 0.3), complex(inf, -inf)))
	f.Add(uint8(2), math.Float64bits(nan), symbolBytes(complex(1e308, -1e308), complex(denorm, -denorm)))
	f.Add(uint8(3), math.Float64bits(1e-300), symbolBytes(complex(0.05, 0.95), complex(-inf, nan), complex(0, 0)))
	f.Add(uint8(3), math.Float64bits(inf), symbolBytes(complex(0.4, -1.2)))
	f.Add(uint8(2), math.Float64bits(denorm), symbolBytes(complex(3, -3), complex(1e154, 1e-154)))
	f.Add(uint8(1), math.Float64bits(-1), symbolBytes(complex(math.Copysign(0, -1), 0.316)))
	f.Fuzz(func(t *testing.T, scheme uint8, n0Bits uint64, data []byte) {
		s := allSchemes[int(scheme)%len(allSchemes)]
		syms := make([]complex128, len(data)/16)
		for i := range syms {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			syms[i] = complex(re, im)
		}
		requireOracle(t, s, syms, math.Float64frombits(n0Bits), "fuzz")
	})
}

// TestHardDecisionRoundTripAllPoints is the exhaustive constellation
// sweep: every label of every scheme, mapped to its exact constellation
// point, must hard-decide back to itself through DemapInto.
func TestHardDecisionRoundTripAllPoints(t *testing.T) {
	for _, s := range allSchemes {
		qm := s.BitsPerSymbol()
		n := 1 << uint(qm)
		all := make([]uint8, 0, n*qm)
		for v := 0; v < n; v++ {
			for j := 0; j < qm; j++ {
				all = append(all, uint8(v>>uint(qm-1-j))&1)
			}
		}
		syms := Map(s, all)
		got := HardDecision(DemapInto(nil, s, syms, 0.1))
		for i := range all {
			if got[i] != all[i] {
				t.Fatalf("%v: bit %d of exhaustive round trip flipped", s, i)
			}
		}
	}
}

// TestDemapN0FloorAndSaturation is the regression test for the n0 <= 0
// clamp: a zero (or negative, or NaN) noise variance must not produce
// unbounded LLRs, and every output must respect the MaxLLR saturation so
// downstream Viterbi branch-metric sums cannot overflow to ±Inf.
func TestDemapN0FloorAndSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, s := range allSchemes {
		for _, n0 := range []float64{0, -1, 1e-300, math.NaN()} {
			syms := noisySymbols(rng, 131)
			llr := DemapInto(nil, s, syms, n0)
			for i, v := range llr {
				if !isFinite(v) || math.Abs(v) > MaxLLR {
					t.Fatalf("%v n0=%v: LLR %d = %v escapes saturation", s, n0, i, v)
				}
			}
			// The floor must preserve decisions: an exact constellation
			// point still hard-decides to itself at n0 = 0.
			bits := make([]uint8, s.BitsPerSymbol())
			point := Map(s, bits)
			got := HardDecision(DemapInto(nil, s, point, n0))
			for i := range bits {
				if got[i] != bits[i] {
					t.Fatalf("%v n0=%v: clamped demap flipped bit %d", s, n0, i)
				}
			}
		}
	}
}

// TestDemapNonFiniteSymbols: Inf/NaN symbol components must demap to
// finite, saturated LLRs (NaN to 0), matching the oracle's policy.
func TestDemapNonFiniteSymbols(t *testing.T) {
	bad := []complex128{
		complex(math.Inf(1), 0.3),
		complex(math.Inf(-1), math.Inf(1)),
		complex(math.NaN(), -0.7),
		complex(0.2, math.NaN()),
		complex(math.NaN(), math.NaN()),
		complex(1e308, -1e308),
	}
	for _, s := range allSchemes {
		requireOracle(t, s, bad, 0.5, "non-finite")
	}
}

// TestDemapIntoZeroAlloc: DemapInto must stay allocation free with a
// reused destination across every scheme and a symbol count that is not
// a power of two.
func TestDemapIntoZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(44))
	for _, s := range allSchemes {
		syms := noisySymbols(rng, 197)
		dst := DemapInto(nil, s, syms, 0.4)
		if n := testing.AllocsPerRun(100, func() {
			dst = DemapInto(dst, s, syms, 0.4)
		}); n != 0 {
			t.Errorf("%v: DemapInto %.1f allocs/op, want 0", s, n)
		}
	}
}

// BenchmarkDemap is the per-scheme kernel family CI's demap gate runs:
// the closed-form kernels against the level-scan oracle, both into
// reused destinations (0 allocs/op is part of the gate).
func BenchmarkDemap(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	const nSyms = 4096
	syms := noisySymbols(rng, nSyms)
	for _, s := range allSchemes {
		dst := make([]float64, nSyms*s.BitsPerSymbol())
		b.Run(fmt.Sprintf("scheme=%s/kernel=closedform", s), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(nSyms * 16))
			for i := 0; i < b.N; i++ {
				dst = DemapInto(dst, s, syms, 0.3)
			}
		})
		b.Run(fmt.Sprintf("scheme=%s/kernel=reference", s), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(nSyms * 16))
			for i := 0; i < b.N; i++ {
				dst = demapReference(dst, s, syms, 0.3)
			}
		})
	}
}
