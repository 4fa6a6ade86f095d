package phy

import (
	"fmt"
	"testing"
)

// hashYOracle is Y_{p,n} of TS 38.213 §10.1 as the standard writes it:
// Y_{p,−1} is the C-RNTI (1 for RNTI 0), recursed Y_{p,n} =
// A_p·Y_{p,n−1} mod D once per slot up to n; a common search space has
// Y = 0. It is the oracle for the closed form CandidateCCE evaluates.
func hashYOracle(ss SearchSpace, cs CORESET, rnti uint16, slot int) uint64 {
	if ss.Type != UESearchSpace {
		return 0
	}
	y := uint64(rnti)
	if y == 0 {
		y = 1
	}
	a := hashA[cs.ID%3]
	for p := 0; p <= slot; p++ {
		y = a * y % hashD
	}
	return y
}

// candidateCCEOracle is the rest of CandidateCCE's hashing function,
// over a Y from hashYOracle.
func candidateCCEOracle(ss SearchSpace, cs CORESET, y uint64, aggLevel, m int) (int, bool) {
	nCCE := cs.NumCCE()
	if aggLevel > nCCE {
		return 0, false
	}
	mL := ss.Candidates[aggLevel]
	if m >= mL || mL == 0 {
		return 0, false
	}
	span := nCCE / aggLevel
	if span == 0 {
		return 0, false
	}
	idx := (y + uint64(m*nCCE/(aggLevel*mL))) % uint64(span)
	return aggLevel * int(idx), true
}

// TestCandidateCCEMatchesRecursiveOracle holds the closed-form hash to
// the recursion exhaustively: every RNTI, CORESET IDs 0–2 (all three
// multipliers), every slot of a Mu2 frame and every (L, m) of the default
// UE search space, in a 48-CCE CORESET so every level has room to move.
// -short (the race job) strides over the RNTIs.
func TestCandidateCCEMatchesRecursiveOracle(t *testing.T) {
	ss := SearchSpace{Type: UESearchSpace, Candidates: DefaultUECandidates()}
	stride := 1
	if testing.Short() {
		stride = 97
	}
	for id := 0; id < 3; id++ {
		t.Run(fmt.Sprintf("coreset%d", id), func(t *testing.T) {
			t.Parallel()
			cs := CORESET{ID: id, NumPRB: 144, Duration: 2} // 48 CCEs
			for r := 0; r <= 0xFFFF; r += stride {
				rnti := uint16(r)
				for slot := 0; slot < Mu2.SlotsPerFrame(); slot++ {
					y := hashYOracle(ss, cs, rnti, slot)
					for _, al := range AggregationLevels {
						for m := 0; m < ss.Candidates[al]; m++ {
							want, wantOK := candidateCCEOracle(ss, cs, y, al, m)
							got, ok := CandidateCCE(ss, cs, rnti, slot, al, m)
							if got != want || ok != wantOK {
								t.Fatalf("rnti %#x slot %d L=%d m=%d: CandidateCCE = %d, %v; oracle %d, %v",
									rnti, slot, al, m, got, ok, want, wantOK)
							}
						}
					}
				}
			}
		})
	}
}

// TestHashPowMatchesRecursion pins the table itself: hashPow[p][n] is
// what n+1 steps of the recursion make of Y_{p,−1} = 1.
func TestHashPowMatchesRecursion(t *testing.T) {
	for p := range hashA {
		cs := CORESET{ID: p}
		ss := SearchSpace{Type: UESearchSpace}
		for n := 0; n < hashSlots; n++ {
			if want := hashYOracle(ss, cs, 1, n); hashPow[p][n] != want {
				t.Fatalf("hashPow[%d][%d] = %d, recursion %d", p, n, hashPow[p][n], want)
			}
		}
	}
}

// TestCandidateCCERejectsSlotOutsideFrame: a slot outside [0, 40) has no
// candidates, in either search-space type.
func TestCandidateCCERejectsSlotOutsideFrame(t *testing.T) {
	cs := CORESET{ID: 1, NumPRB: 96, Duration: 1}
	for _, ss := range []SearchSpace{
		{Type: UESearchSpace, Candidates: DefaultUECandidates()},
		{Type: CommonSearchSpace, Candidates: DefaultCommonCandidates()},
	} {
		for _, slot := range []int{-1, hashSlots, 1000} {
			if _, ok := CandidateCCE(ss, cs, 0x4601, slot, 4, 0); ok {
				t.Errorf("%v search space: slot %d accepted", ss.Type, slot)
			}
			if got := AppendSlotCandidates(nil, ss, cs, 0x4601, slot); len(got) != 0 {
				t.Errorf("%v search space: slot %d has %d candidates", ss.Type, slot, len(got))
			}
		}
	}
}

// TestLevelOffsetIndexesSlotCandidates: candidate m of level L sits at
// LevelOffset(L)+m of AppendSlotCandidates' order, on CORESETs of 2, 4, 8
// and 16 CCEs, where AL-4, AL-8 and AL-16 drop out in turn and the
// offsets shift; LevelOffset(0) counts every candidate.
func TestLevelOffsetIndexesSlotCandidates(t *testing.T) {
	ss := SearchSpace{Type: UESearchSpace, Candidates: DefaultUECandidates()}
	var cands []Candidate
	for _, nCCE := range []int{2, 4, 8, 16} {
		cs := CORESET{ID: 2, NumPRB: 6 * nCCE, Duration: 1}
		for _, rnti := range []uint16{0, 1, 0x4601, 0x9F3C, 0xFFFF} {
			for slot := 0; slot < hashSlots; slot++ {
				cands = AppendSlotCandidates(cands[:0], ss, cs, rnti, slot)
				if n := LevelOffset(ss, cs, 0); len(cands) != n {
					t.Fatalf("%d CCEs: %d candidates, LevelOffset(0) = %d", nCCE, len(cands), n)
				}
				for _, al := range AggregationLevels {
					off := LevelOffset(ss, cs, al)
					for m := 0; m < ss.Candidates[al]; m++ {
						cce, ok := CandidateCCE(ss, cs, rnti, slot, al, m)
						if !ok {
							if al <= nCCE {
								t.Fatalf("%d CCEs: L=%d m=%d has no candidate", nCCE, al, m)
							}
							continue
						}
						want := Candidate{AggLevel: al, Index: m, StartCCE: cce}
						if k := off + m; k >= len(cands) || cands[k] != want {
							t.Fatalf("%d CCEs rnti %#x slot %d: index %d is not %+v in %+v", nCCE, rnti, slot, k, want, cands)
						}
					}
				}
			}
		}
	}
}
