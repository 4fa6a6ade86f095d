package pdcch

import (
	"math/rand"
	"testing"

	"nrscope/internal/phy"
	"nrscope/internal/polar"
	"nrscope/internal/raceflag"
)

// TestDecodeCandidateIntoMatchesDecodeCandidate pins the Into variant to
// the allocating one bit for bit, including across buffer reuse.
func TestDecodeCandidateIntoMatchesDecodeCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := New(cellID)
	cs := coreset()
	var buf []uint8
	for _, al := range []int{1, 2, 4, 8} {
		cand := phy.Candidate{AggLevel: al, StartCCE: 0}
		g := phy.NewGrid(51)
		if err := c.Encode(g, cs, cand, 3, randomBits(rng, 43), 0x4601); err != nil {
			t.Fatal(err)
		}
		n0 := addNoise(g, 12, rng)
		want, err := c.DecodeCandidateInto(nil, g, cs, cand, 3, 43, n0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.DecodeCandidateInto(buf, g, cs, cand, 3, 43, n0)
		if err != nil {
			t.Fatal(err)
		}
		buf = got[:0] // reuse across aggregation levels
		if len(got) != len(want) {
			t.Fatalf("AL%d: length %d vs %d", al, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("AL%d: bit %d differs", al, i)
			}
		}
	}
}

// TestDecodeHotPathZeroAlloc enforces the tentpole property: with warm
// codec caches and reused buffers, the per-candidate decode path, the
// DMRS metric and the occupancy sweep perform no heap allocation.
func TestDecodeHotPathZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(12))
	c := New(cellID)
	cs := coreset()
	cand := phy.Candidate{AggLevel: 4, StartCCE: 0}
	g := phy.NewGrid(51)
	if err := c.Encode(g, cs, cand, 3, randomBits(rng, 43), 0x4601); err != nil {
		t.Fatal(err)
	}
	n0 := addNoise(g, 15, rng)

	// Warm every cache (layouts for all CCE metrics, gold, polar, pool).
	blk, err := c.DecodeCandidateInto(nil, g, cs, cand, 3, 43, n0)
	if err != nil {
		t.Fatal(err)
	}
	candidateDMRS(c, g, cs, cand, 3)
	occ := c.OccupiedCCEsInto(nil, g, cs, 3)

	if n := testing.AllocsPerRun(100, func() {
		out, err := c.DecodeCandidateInto(blk, g, cs, cand, 3, 43, n0)
		if err != nil {
			t.Fatal(err)
		}
		blk = out
	}); n != 0 {
		t.Errorf("DecodeCandidateInto: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		candidateDMRS(c, g, cs, cand, 3)
	}); n != 0 {
		t.Errorf("DMRSMetric: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		occ = c.OccupiedCCEsInto(occ, g, cs, 3)
	}); n != 0 {
		t.Errorf("OccupiedCCEsInto: %.1f allocs/op, want 0", n)
	}
}

// TestPayloadFitsMatchesPolarFeasibility: PayloadFits must agree exactly
// with whether a polar construction exists for the candidate, since the
// blind decoder uses it to classify positions as empty without trying.
func TestPayloadFitsMatchesPolarFeasibility(t *testing.T) {
	for _, al := range phy.AggregationLevels {
		e := al * phy.BitsPerCCE
		for payload := 1; payload <= 600; payload++ {
			_, err := polar.NewCode(payload+24, e)
			if got, want := PayloadFits(payload, al), err == nil; got != want {
				t.Fatalf("PayloadFits(%d, AL%d) = %v, NewCode err = %v", payload, al, got, err)
			}
		}
	}
}
