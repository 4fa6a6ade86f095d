package modulation

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

var allSchemes = []Scheme{QPSK, QAM16, QAM64, QAM256}

// hardDecision slices LLRs to bits (negative LLR -> 1): the oracle the
// demap tests compare transmitted bits against.
func hardDecision(llr []float64) []uint8 {
	out := make([]uint8, len(llr))
	for i, v := range llr {
		if v < 0 {
			out[i] = 1
		}
	}
	return out
}

func randomBits(rng *rand.Rand, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(2))
	}
	return out
}

func TestFromQm(t *testing.T) {
	for _, s := range allSchemes {
		got, err := FromQm(s.BitsPerSymbol())
		if err != nil || got != s {
			t.Errorf("FromQm(%d) = %v, %v", s.BitsPerSymbol(), got, err)
		}
	}
	if _, err := FromQm(3); err == nil {
		t.Error("FromQm(3) did not error")
	}
}

func TestUnitAverageEnergy(t *testing.T) {
	for _, s := range allSchemes {
		qm := s.BitsPerSymbol()
		n := 1 << uint(qm)
		var sum float64
		for v := 0; v < n; v++ {
			bits := make([]uint8, qm)
			for j := 0; j < qm; j++ {
				bits[j] = uint8(v>>uint(qm-1-j)) & 1
			}
			sym := Map(s, bits)[0]
			sum += real(sym)*real(sym) + imag(sym)*imag(sym)
		}
		avg := sum / float64(n)
		if math.Abs(avg-1) > 1e-9 {
			t.Errorf("%v: average symbol energy %.6f, want 1", s, avg)
		}
	}
}

func TestConstellationPointsDistinct(t *testing.T) {
	for _, s := range allSchemes {
		qm := s.BitsPerSymbol()
		n := 1 << uint(qm)
		seen := make(map[complex128]int)
		for v := 0; v < n; v++ {
			bits := make([]uint8, qm)
			for j := 0; j < qm; j++ {
				bits[j] = uint8(v>>uint(qm-1-j)) & 1
			}
			sym := Map(s, bits)[0]
			if prev, dup := seen[sym]; dup {
				t.Errorf("%v: labels %d and %d map to the same point", s, prev, v)
			}
			seen[sym] = v
		}
	}
}

func TestGrayAdjacency(t *testing.T) {
	// Nearest neighbours along one axis must differ in exactly one bit —
	// the defining property of the Gray mapping.
	for _, s := range allSchemes {
		levels, labels := pamTable(s)
		type lv struct {
			level float64
			label []uint8
		}
		pts := make([]lv, len(levels))
		for i := range levels {
			pts[i] = lv{levels[i], labels[i]}
		}
		for i := range pts {
			for j := range pts {
				if pts[j].level <= pts[i].level {
					continue
				}
				// find the immediate right neighbour
				isNeighbour := true
				for k := range pts {
					if pts[k].level > pts[i].level && pts[k].level < pts[j].level {
						isNeighbour = false
						break
					}
				}
				if !isNeighbour {
					continue
				}
				diff := 0
				for b := range pts[i].label {
					if pts[i].label[b] != pts[j].label[b] {
						diff++
					}
				}
				if diff != 1 {
					t.Errorf("%v: adjacent levels %.3f and %.3f differ in %d bits", s, pts[i].level, pts[j].level, diff)
				}
			}
		}
	}
}

func TestMapDemapRoundTripNoiseless(t *testing.T) {
	f := func(seed int64, schemeIdx uint8, nRaw uint8) bool {
		s := allSchemes[int(schemeIdx)%len(allSchemes)]
		rng := rand.New(rand.NewSource(seed))
		n := (1 + int(nRaw)%40) * s.BitsPerSymbol()
		bitstream := randomBits(rng, n)
		symbols := Map(s, bitstream)
		llr := DemapInto(nil, s, symbols, 0.01)
		got := hardDecision(llr)
		for i := range bitstream {
			if got[i] != bitstream[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDemapUnderNoise(t *testing.T) {
	// Hard decisions from a moderately noisy QPSK channel should have a
	// low but non-zero bit error rate, in the ballpark of Q(sqrt(2Es/N0)).
	rng := rand.New(rand.NewSource(3))
	bitstream := randomBits(rng, 20000)
	symbols := Map(QPSK, bitstream)
	n0 := 0.5 // Es/N0 = 3 dB
	noisy := make([]complex128, len(symbols))
	sigma := math.Sqrt(n0 / 2)
	for i, sym := range symbols {
		noisy[i] = sym + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	got := hardDecision(DemapInto(nil, QPSK, noisy, n0))
	errs := 0
	for i := range bitstream {
		if got[i] != bitstream[i] {
			errs++
		}
	}
	ber := float64(errs) / float64(len(bitstream))
	// Es/N0 = 3 dB -> Eb/N0 = 0 dB -> BER = Q(sqrt(2)) ~ 0.0786.
	if ber < 0.05 || ber > 0.11 {
		t.Errorf("QPSK BER at 3 dB = %.4f, expected around 0.079", ber)
	}
}

func TestDemapLLRMagnitudeOrdering(t *testing.T) {
	// A symbol far from the decision boundary must give larger-magnitude
	// LLRs than one close to it.
	sym := Map(QPSK, []uint8{0, 0})[0]
	far := DemapInto(nil, QPSK, []complex128{sym * 2}, 1)
	near := DemapInto(nil, QPSK, []complex128{sym * complex(0.1, 0)}, 1)
	if math.Abs(far[0]) <= math.Abs(near[0]) {
		t.Errorf("far LLR %.2f not larger than near LLR %.2f", far[0], near[0])
	}
}

func TestMapPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Map with misaligned bit count did not panic")
		}
	}()
	Map(QAM64, make([]uint8, 7))
}

func TestSchemeString(t *testing.T) {
	want := map[Scheme]string{QPSK: "QPSK", QAM16: "16QAM", QAM64: "64QAM", QAM256: "256QAM"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestQPSKPhases(t *testing.T) {
	// QPSK per 38.211: all four points on the diagonals at 45/135/225/315.
	for _, bits := range [][]uint8{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		sym := Map(QPSK, bits)[0]
		if math.Abs(cmplx.Abs(sym)-1) > 1e-9 {
			t.Errorf("QPSK %v: |sym| = %f, want 1", bits, cmplx.Abs(sym))
		}
		if math.Abs(math.Abs(real(sym))-math.Abs(imag(sym))) > 1e-9 {
			t.Errorf("QPSK %v not on a diagonal: %v", bits, sym)
		}
	}
}

func BenchmarkDemapQPSK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	symbols := Map(QPSK, randomBits(rng, 864))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DemapInto(nil, QPSK, symbols, 0.5)
	}
}

func BenchmarkDemap256QAM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	symbols := Map(QAM256, randomBits(rng, 8*1000))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DemapInto(nil, QAM256, symbols, 0.1)
	}
}
