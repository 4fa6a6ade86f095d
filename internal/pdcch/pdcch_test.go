package pdcch

import (
	"math"
	"math/rand"
	"testing"

	"nrscope/internal/bits"
	"nrscope/internal/channel"
	"nrscope/internal/phy"
)

const cellID = 500

// candidateDMRS correlates the candidate's pilot REs against the
// expected DMRS in the codec's own Plan: a normalised metric in [-1, 1],
// near 1 when a PDCCH transmission is present and near zero on empty or
// noise-only candidates.
func candidateDMRS(c *Codec, g *phy.Grid, cs phy.CORESET, cand phy.Candidate, slot int) float64 {
	c.plan.Resolve(c, cs, slot, c.plan.payloadBits)
	return c.plan.dmrsMetric(g, cand.AggLevel, cand.StartCCE)
}

func coreset() phy.CORESET {
	return phy.CORESET{ID: 0, StartPRB: 0, NumPRB: 48, Duration: 1, StartSym: 0}
}

func addNoise(g *phy.Grid, snrdB float64, rng *rand.Rand) float64 {
	n0 := channel.SNRdBToN0(snrdB)
	sigma := math.Sqrt(n0 / 2)
	s := g.Samples()
	for i := range s {
		s[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return n0
}

func randomBits(rng *rand.Rand, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(2))
	}
	return out
}

func TestEncodeDecodeRoundTripNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New(cellID)
	cs := coreset()
	for _, al := range []int{1, 2, 4, 8} {
		cand := phy.Candidate{AggLevel: al, StartCCE: 0}
		g := phy.NewGrid(51)
		payload := randomBits(rng, 43)
		rnti := uint16(0x4601)
		if err := c.Encode(g, cs, cand, 3, payload, rnti); err != nil {
			t.Fatalf("AL%d: %v", al, err)
		}
		block, err := c.DecodeCandidateInto(nil, g, cs, cand, 3, len(payload), 1e-4)
		if err != nil {
			t.Fatalf("AL%d: %v", al, err)
		}
		got, ok := bits.CheckDCICRC(block, rnti)
		if !ok {
			t.Fatalf("AL%d: CRC failed on noiseless channel", al)
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Fatalf("AL%d: payload bit %d wrong", al, i)
			}
		}
	}
}

func TestRNTIRecoveryThroughFullChain(t *testing.T) {
	// The paper's §3.1.2 C-RNTI discovery, run through polar coding,
	// scrambling, modulation and a moderately noisy channel.
	rng := rand.New(rand.NewSource(2))
	c := New(cellID)
	cs := coreset()
	cand := phy.Candidate{AggLevel: 4, StartCCE: 0}
	recovered := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		g := phy.NewGrid(51)
		payload := randomBits(rng, 43)
		rnti := uint16(0x4000 + trial)
		if err := c.Encode(g, cs, cand, trial%20, payload, rnti); err != nil {
			t.Fatal(err)
		}
		n0 := addNoise(g, 10, rng)
		block, err := c.DecodeCandidateInto(nil, g, cs, cand, trial%20, len(payload), n0)
		if err != nil {
			t.Fatal(err)
		}
		if _, got, ok := bits.RecoverRNTI(block); ok && got == rnti {
			recovered++
		}
	}
	if recovered < trials*9/10 {
		t.Errorf("recovered RNTI in %d/%d trials at 10 dB, want >= 90%%", recovered, trials)
	}
}

func TestDecodeMissRateIncreasesWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := New(cellID)
	cs := coreset()
	cand := phy.Candidate{AggLevel: 2, StartCCE: 2}
	missAt := func(snr float64) int {
		misses := 0
		for trial := 0; trial < 40; trial++ {
			g := phy.NewGrid(51)
			payload := randomBits(rng, 43)
			if err := c.Encode(g, cs, cand, 5, payload, 0x4601); err != nil {
				t.Fatal(err)
			}
			n0 := addNoise(g, snr, rng)
			block, err := c.DecodeCandidateInto(nil, g, cs, cand, 5, len(payload), n0)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := bits.CheckDCICRC(block, 0x4601); !ok {
				misses++
			}
		}
		return misses
	}
	high := missAt(20)
	low := missAt(-2)
	if high > 2 {
		t.Errorf("misses at 20 dB = %d/40, want near 0", high)
	}
	if low <= high {
		t.Errorf("misses at -2 dB (%d) not above 20 dB (%d)", low, high)
	}
}

func TestDMRSMetricDetectsPresence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := New(cellID)
	cs := coreset()
	used := phy.Candidate{AggLevel: 4, StartCCE: 0}
	empty := phy.Candidate{AggLevel: 4, StartCCE: 4}
	g := phy.NewGrid(51)
	if err := c.Encode(g, cs, used, 7, randomBits(rng, 43), 0x4601); err != nil {
		t.Fatal(err)
	}
	addNoise(g, 10, rng)
	if m := candidateDMRS(c, g, cs, used, 7); m < DMRSThreshold {
		t.Errorf("occupied candidate metric %.2f below threshold", m)
	}
	if m := candidateDMRS(c, g, cs, empty, 7); m > DMRSThreshold {
		t.Errorf("empty candidate metric %.2f above threshold", m)
	}
}

func TestDMRSMetricEmptyGrid(t *testing.T) {
	c := New(cellID)
	cs := coreset()
	g := phy.NewGrid(51)
	if m := candidateDMRS(c, g, cs, phy.Candidate{AggLevel: 1, StartCCE: 0}, 0); m != 0 {
		t.Errorf("metric on silent grid = %.3f, want 0", m)
	}
}

func TestDMRSMetricSlotSpecific(t *testing.T) {
	// DMRS from a different slot must not correlate: the detector cannot
	// be fooled by stale transmissions.
	rng := rand.New(rand.NewSource(5))
	c := New(cellID)
	cs := coreset()
	cand := phy.Candidate{AggLevel: 8, StartCCE: 0}
	g := phy.NewGrid(51)
	if err := c.Encode(g, cs, cand, 3, randomBits(rng, 43), 0x4601); err != nil {
		t.Fatal(err)
	}
	same := candidateDMRS(c, g, cs, cand, 3)
	other := candidateDMRS(c, g, cs, cand, 4)
	if other >= same {
		t.Errorf("stale-slot metric %.2f not below live metric %.2f", other, same)
	}
	if other > DMRSThreshold {
		t.Errorf("stale-slot metric %.2f above threshold", other)
	}
}

func TestCellScramblingIsolation(t *testing.T) {
	// A codec configured for a different cell id must fail the CRC:
	// scrambling isolates co-channel cells.
	rng := rand.New(rand.NewSource(6))
	cA := New(500)
	cB := New(501)
	cs := coreset()
	cand := phy.Candidate{AggLevel: 4, StartCCE: 0}
	g := phy.NewGrid(51)
	payload := randomBits(rng, 43)
	if err := cA.Encode(g, cs, cand, 1, payload, 0x4601); err != nil {
		t.Fatal(err)
	}
	block, err := cB.DecodeCandidateInto(nil, g, cs, cand, 1, len(payload), 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bits.CheckDCICRC(block, 0x4601); ok {
		t.Error("wrong-cell decode passed CRC")
	}
}

func BenchmarkDecodeCandidateAL4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := New(cellID)
	cs := coreset()
	cand := phy.Candidate{AggLevel: 4, StartCCE: 0}
	g := phy.NewGrid(51)
	if err := c.Encode(g, cs, cand, 3, randomBits(rng, 43), 0x4601); err != nil {
		b.Fatal(err)
	}
	n0 := addNoise(g, 15, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeCandidateInto(nil, g, cs, cand, 3, 43, n0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDMRSMetric(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := New(cellID)
	cs := coreset()
	cand := phy.Candidate{AggLevel: 4, StartCCE: 0}
	g := phy.NewGrid(51)
	if err := c.Encode(g, cs, cand, 3, randomBits(rng, 43), 0x4601); err != nil {
		b.Fatal(err)
	}
	addNoise(g, 15, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		candidateDMRS(c, g, cs, cand, 3)
	}
}
