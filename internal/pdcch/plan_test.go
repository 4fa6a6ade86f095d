package pdcch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nrscope/internal/phy"
	"nrscope/internal/raceflag"
)

// ueCoreset is a dedicated two-symbol UE CORESET over a different
// control region than coreset().
func ueCoreset() phy.CORESET {
	return phy.CORESET{ID: 1, StartPRB: 6, NumPRB: 24, Duration: 2, StartSym: 0}
}

// planGrid encodes a few random DCIs onto a noisy grid for slot: some
// on CORESET 0, some on the UE CORESET.
func planGrid(t *testing.T, rng *rand.Rand, c *Codec, slot, payloadBits int) (*phy.Grid, float64) {
	t.Helper()
	g := phy.NewGrid(51)
	for i, cs := range []phy.CORESET{coreset(), ueCoreset()} {
		al := phy.AggregationLevels[rng.Intn(4)]
		if !PayloadFits(payloadBits, al) {
			continue
		}
		cand := phy.Candidate{AggLevel: al, StartCCE: al * rng.Intn(cs.NumCCE()/al)}
		if err := c.Encode(g, cs, cand, slot, randomBits(rng, payloadBits), uint16(0x4601+i)); err != nil {
			t.Fatal(err)
		}
	}
	return g, addNoise(g, 4+float64(rng.Intn(12)), rng)
}

// TestPlanMatchesCodec holds the plan path to the Codec's entry points:
// over slots 0..19, one Plan alternating between CORESET 0 and a
// dedicated UE CORESET (so every slot changes the CORESET) and between
// two payload sizes, must decode every (aggregation level, start CCE)
// of the CORESET — aligned or not, feasible or not — to the same block
// or error as DecodeCandidateInto, and sweep the same occupancy as
// OccupiedCCEsInto.
func TestPlanMatchesCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	c := New(cellID)
	var p Plan
	var got, want []uint8
	var occ []bool
	for slot := 0; slot < 20; slot++ {
		payloadBits := []int{43, 100}[slot/2%2] // 100 bits do not fit AL 1
		g, n0 := planGrid(t, rng, c, slot, payloadBits)
		for k, cs := range []phy.CORESET{coreset(), ueCoreset()} {
			if slot%2 == 1 {
				cs = []phy.CORESET{ueCoreset(), coreset()}[k]
			}
			p.Resolve(c, cs, slot, payloadBits)
			occ = p.OccupiedCCEsInto(occ, g)
			if wantOcc := c.OccupiedCCEsInto(nil, g, cs, slot); !slices.Equal(occ, wantOcc) {
				t.Fatalf("slot %d CORESET %d: occupancy %v, codec %v", slot, cs.ID, occ, wantOcc)
			}
			for _, al := range phy.AggregationLevels {
				for cce := 0; cce+al <= cs.NumCCE(); cce++ {
					cand := phy.Candidate{AggLevel: al, StartCCE: cce}
					where := fmt.Sprintf("slot %d CORESET %d AL %d CCE %d payload %d", slot, cs.ID, al, cce, payloadBits)
					var err, wantErr error
					got, err = p.DecodeInto(got, g, cand, n0)
					want, wantErr = c.DecodeCandidateInto(want, g, cs, cand, slot, payloadBits, n0)
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("%s: error %v, codec %v", where, err, wantErr)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: block differs from the codec's", where)
					}
				}
			}
		}
	}
}

// TestPlanHotPathZeroAlloc: with the codec caches warm, resolving a plan
// for a new slot, sweeping occupancy and decoding a candidate allocate
// nothing.
func TestPlanHotPathZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(37))
	c := New(cellID)
	cs := coreset()
	cand := phy.Candidate{AggLevel: 4, StartCCE: 4}
	g := phy.NewGrid(51)
	if err := c.Encode(g, cs, cand, 3, randomBits(rng, 43), 0x4601); err != nil {
		t.Fatal(err)
	}
	n0 := addNoise(g, 15, rng)
	var p Plan
	var blk []uint8
	var occ []bool
	step := func(slot int) {
		p.Resolve(c, cs, slot, 43)
		occ = p.OccupiedCCEsInto(occ, g)
		var err error
		if blk, err = p.DecodeInto(blk, g, cand, n0); err != nil {
			t.Fatal(err)
		}
	}
	for slot := 0; slot < 20; slot++ {
		step(slot) // warm the per-slot DMRS references
	}
	slot := 0
	if n := testing.AllocsPerRun(100, func() {
		step(slot % 20)
		slot++
	}); n != 0 {
		t.Errorf("plan resolve + occupancy + decode: %.1f allocs/op, want 0", n)
	}
}

// TestTableSpansMatchCandidateREs pins the per-CORESET table to the
// geometry it replaces: every (aggregation level, start CCE) slice —
// and a position outside the CORESET, built per call — must list
// exactly the candidate's data and DMRS REs in mapping order, with the
// reference index the DMRS RE's subcarrier selects.
func TestTableSpansMatchCandidateREs(t *testing.T) {
	for _, cs := range []phy.CORESET{coreset(), ueCoreset(), {ID: 2, StartPRB: 3, NumPRB: 18, Duration: 2, StartSym: 1}} {
		tab := newTable(cs)
		perSym := cs.NumPRB * len(phy.REGDMRSOffsets)
		for _, al := range phy.AggregationLevels {
			for cce := 0; cce <= cs.NumCCE(); cce++ {
				sp := tab.span(cs, al, cce)
				data, dmrs := cs.CandidateDataREs(cce, al), cs.CandidateDMRSREs(cce, al)
				if !slices.Equal(sp.data, data) || !slices.Equal(sp.dmrs, dmrs) {
					t.Fatalf("CORESET %d AL %d CCE %d: table REs differ from the candidate's", cs.ID, al, cce)
				}
				for i, re := range dmrs {
					k := re.Subcarrier % (cs.NumPRB * phy.SubcarriersPerPRB) / 4
					if want := int32((re.Symbol-cs.StartSym)*perSym + k); sp.refIdx[i] != want {
						t.Fatalf("CORESET %d AL %d CCE %d: DMRS RE %d reference index %d, want %d", cs.ID, al, cce, i, sp.refIdx[i], want)
					}
				}
			}
		}
	}
}
