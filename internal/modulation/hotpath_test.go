package modulation

import (
	"math"
	"math/rand"
	"testing"

	"nrscope/internal/raceflag"
)

func noisySymbols(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

// TestQPSKFastPathMatchesMaxLog: the closed-form QPSK demap must equal
// the generic two-level max-log computation it replaced.
func TestQPSKFastPathMatchesMaxLog(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	syms := noisySymbols(rng, 200)
	n0 := 0.3
	got := DemapInto(nil, QPSK, syms, n0)
	levels, labels := pamTable(QPSK)
	want := make([]float64, len(got))
	for k, sym := range syms {
		demapAxis(real(sym), levels, labels, 1, n0, want[2*k:], 0)
		demapAxis(imag(sym), levels, labels, 1, n0, want[2*k:], 1)
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("LLR %d: fast %.12f vs max-log %.12f", i, got[i], want[i])
		}
	}
}

// TestDemapIntoReusesBuffer: with sufficient capacity the destination
// backing array is reused and no allocation happens.
func TestDemapIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, s := range allSchemes {
		syms := noisySymbols(rng, 64)
		first := DemapInto(nil, s, syms, 0.5)
		second := DemapInto(first, s, syms, 0.5)
		if &first[0] != &second[0] {
			t.Errorf("%v: DemapInto reallocated despite sufficient capacity", s)
		}
		if raceflag.Enabled {
			continue // allocation counts differ under the race detector
		}
		if n := testing.AllocsPerRun(100, func() {
			first = DemapInto(first, s, syms, 0.5)
		}); n != 0 {
			t.Errorf("%v: DemapInto %.1f allocs/op, want 0", s, n)
		}
	}
}

// TestDemapIntoMatchesDemap across all schemes: a caller-supplied buffer
// and the nil-dst allocation must give the same LLRs, so a fast path
// added to one cannot drift from the other.
func TestDemapIntoMatchesDemap(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, s := range allSchemes {
		syms := noisySymbols(rng, 48)
		want := DemapInto(nil, s, syms, 0.7)
		buf := make([]float64, 0, len(syms)*s.BitsPerSymbol())
		got := DemapInto(buf, s, syms, 0.7)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: LLR %d differs", s, i)
			}
		}
	}
}
