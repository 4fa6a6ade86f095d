package convcode

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomBits(rng *rand.Rand, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(2))
	}
	return out
}

func noiselessLLR(bits []uint8) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		if b == 0 {
			out[i] = 8
		} else {
			out[i] = -8
		}
	}
	return out
}

func TestCodedLen(t *testing.T) {
	if got := CodedLen(100); got != (100+6)*3 {
		t.Errorf("CodedLen(100) = %d, want %d", got, 318)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	info := []uint8{1, 0, 1, 1, 0, 0, 1}
	a := Encode(info)
	b := Encode(info)
	if len(a) != CodedLen(len(info)) {
		t.Fatalf("coded length %d, want %d", len(a), CodedLen(len(info)))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Encode not deterministic")
		}
	}
}

func TestNoiselessRoundTrip(t *testing.T) {
	f := func(seed int64, kRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 8 + int(kRaw%500)
		info := randomBits(rng, k)
		coded := Encode(info)
		got := Decode(noiselessLLR(coded), k)
		for i := range info {
			if got[i] != info[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRateMatchRepetitionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	info := randomBits(rng, 120)
	coded := Encode(info)
	e := len(coded)*2 + 17
	matched, err := RateMatch(coded, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(matched) != e {
		t.Fatalf("matched length %d, want %d", len(matched), e)
	}
	got := RecoverAndDecode(noiselessLLR(matched), len(info))
	for i := range info {
		if got[i] != info[i] {
			t.Fatalf("bit %d wrong after repetition round trip", i)
		}
	}
}

func TestRateMatchPuncturedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	info := randomBits(rng, 200)
	coded := Encode(info)
	e := len(coded) * 3 / 4 // puncture a quarter
	matched, err := RateMatch(coded, e)
	if err != nil {
		t.Fatal(err)
	}
	got := RecoverAndDecode(noiselessLLR(matched), len(info))
	for i := range info {
		if got[i] != info[i] {
			t.Fatalf("bit %d wrong after punctured round trip", i)
		}
	}
}

func TestRateMatchRejectsOverPuncturing(t *testing.T) {
	coded := Encode(make([]uint8, 100))
	if _, err := RateMatch(coded, len(coded)/3); err == nil {
		t.Error("RateMatch accepted E below half the coded length")
	}
}

func TestDecodeCorrectsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sigma := 0.8
	success := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		info := randomBits(rng, 150)
		coded := Encode(info)
		llr := make([]float64, len(coded))
		for i, b := range coded {
			x := 1.0
			if b == 1 {
				x = -1.0
			}
			llr[i] = 2 * (x + rng.NormFloat64()*sigma) / (sigma * sigma)
		}
		got := Decode(llr, len(info))
		ok := true
		for i := range info {
			if got[i] != info[i] {
				ok = false
				break
			}
		}
		if ok {
			success++
		}
	}
	if success < trials*85/100 {
		t.Errorf("Viterbi succeeded %d/%d at sigma=%.2f, want >= 85%%", success, trials, sigma)
	}
}

func TestDecodePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Decode with wrong LLR count did not panic")
		}
	}()
	Decode(make([]float64, 10), 100)
}

func TestTrellisTables(t *testing.T) {
	// Every state must have exactly two predecessors across the trellis.
	preds := make(map[uint8]int)
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			preds[nextState[s][in]]++
		}
	}
	for s := 0; s < numStates; s++ {
		if preds[uint8(s)] != 2 {
			t.Errorf("state %d has %d predecessors, want 2", s, preds[uint8(s)])
		}
	}
	// The butterfly kernel's wiring: 2j and 2j+1 feed j and j+32, with
	// outputs butterflyOut[j] and its complement.
	for j, o := range butterflyOut {
		want := [2][2]uint8{{o, o ^ 7}, {o ^ 7, o}} // [input][odd]
		for in := 0; in < 2; in++ {
			for odd := 0; odd < 2; odd++ {
				s := 2*j + odd
				if ns := int(nextState[s][in]); ns != j+in*numStates/2 {
					t.Errorf("state %d input %d -> %d, want %d", s, in, ns, j+in*numStates/2)
				}
				if got := outputTable[s][in]; got != want[in][odd] {
					t.Errorf("state %d input %d emits %03b, want %03b", s, in, got, want[in][odd])
				}
			}
		}
	}
}

// BenchmarkViterbi times a reused Workspace at the two block shapes the
// scope decodes — a UCI report and a control-PDSCH transport block, the
// bench probe's convcode.decode_short / decode_long — at amplitude 4
// with unit noise, so the add-compare-select sees data-dependent
// decisions. The UCI shape has two more arms: clean blocks, which the
// codeword check returns without the trellis, and noisy ones (amplitude
// 1), whose hard decisions are wrong and fall back to the trellis.
func BenchmarkViterbi(b *testing.B) {
	for _, arm := range []struct {
		name       string
		k, e       int
		amp, sigma float64
	}{
		{"", 22, 96, 4, 1},
		{"/clean", 22, 96, 4, 0},
		{"/noisy", 22, 96, 1, 1},
		{"", 256, 1920, 4, 1},
	} {
		b.Run(fmt.Sprintf("k=%d/e=%d%s", arm.k, arm.e, arm.name), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(arm.k)<<20 | int64(arm.e)))
			llrs := make([][]float64, 16)
			for i := range llrs {
				ch, err := EncodeAndMatch(randomBits(rng, arm.k), arm.e)
				if err != nil {
					b.Fatal(err)
				}
				llrs[i] = make([]float64, arm.e)
				for j, bit := range ch {
					llrs[i][j] = arm.amp*(1-2*float64(bit)) + arm.sigma*rng.NormFloat64()
				}
			}
			var w Workspace
			w.RecoverAndDecode(llrs[0], arm.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RecoverAndDecode(llrs[i%len(llrs)], arm.k)
			}
		})
	}
}
