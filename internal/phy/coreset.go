package phy

import "fmt"

// PDCCH control-channel geometry (TS 38.211 §7.3.2, TS 38.213 §10.1).
//
// A REG (resource-element group) is one PRB in one OFDM symbol: 12 REs of
// which 3 carry DMRS (subcarriers 1, 5, 9 within the PRB) and 9 carry
// control data. A CCE is 6 REGs, so one CCE carries 54 data REs = 108
// QPSK-modulated bits. A DCI candidate at aggregation level L occupies L
// contiguous CCEs (non-interleaved mapping).

// REGDMRSOffsets are the subcarrier offsets of the PDCCH DMRS within a REG.
var REGDMRSOffsets = [3]int{1, 5, 9}

// REGDataOffsets are the 9 data subcarrier offsets within a REG.
var REGDataOffsets = [9]int{0, 2, 3, 4, 6, 7, 8, 10, 11}

const (
	// REGsPerCCE is fixed by the standard.
	REGsPerCCE = 6
	// DataREsPerREG is 12 minus the 3 DMRS REs.
	DataREsPerREG = 9
	// BitsPerCCE is the QPSK payload capacity of one CCE.
	BitsPerCCE = REGsPerCCE * DataREsPerREG * 2 // 108
)

// AggregationLevels enumerates the valid DCI aggregation levels.
var AggregationLevels = [5]int{1, 2, 4, 8, 16}

// ALIndex returns the index of aggregation level l within
// AggregationLevels, or -1 when l is not a valid level. Flat per-position
// data structures (the blind decoder's position arena) index by it.
func ALIndex(l int) int {
	switch l {
	case 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	case 16:
		return 4
	}
	return -1
}

// CORESET describes a control resource set: a block of PRBs over one or
// two leading OFDM symbols of the slot.
type CORESET struct {
	ID       int
	StartPRB int // first PRB of the CORESET within the grid
	NumPRB   int // width in PRBs; NumPRB*Duration must be a multiple of 6
	Duration int // OFDM symbols, 1 or 2
	StartSym int // first OFDM symbol (usually 0)
}

// Validate checks the CORESET geometry.
func (c CORESET) Validate() error {
	if c.Duration < 1 || c.Duration > 2 {
		return fmt.Errorf("phy: CORESET duration %d not in {1,2}", c.Duration)
	}
	if c.NumPRB <= 0 || (c.NumPRB*c.Duration)%REGsPerCCE != 0 {
		return fmt.Errorf("phy: CORESET %d PRBs x %d symbols is not a whole number of CCEs", c.NumPRB, c.Duration)
	}
	if c.StartPRB < 0 || c.StartSym < 0 || c.StartSym+c.Duration > SymbolsPerSlot {
		return fmt.Errorf("phy: CORESET position out of slot bounds")
	}
	return nil
}

// NumCCE returns the CORESET capacity in CCEs.
func (c CORESET) NumCCE() int { return c.NumPRB * c.Duration / REGsPerCCE }

// SameRegion reports whether two CORESETs cover the same control-region
// resource elements (identical geometry; the ID — and with it the
// search-space hashing family — may differ). CCE indices, and therefore
// occupancy masks, are interchangeable exactly between same-region
// CORESETs.
func (c CORESET) SameRegion(o CORESET) bool {
	return c.StartPRB == o.StartPRB && c.NumPRB == o.NumPRB &&
		c.Duration == o.Duration && c.StartSym == o.StartSym
}

// REGPosition returns the (prb, symbol) of REG index r under the
// time-first REG numbering of TS 38.211 §7.3.2.2: REGs are numbered in
// increasing order of symbol first, then PRB.
func (c CORESET) REGPosition(r int) (prb, symbol int) {
	prb = c.StartPRB + r/c.Duration
	symbol = c.StartSym + r%c.Duration
	return prb, symbol
}

// CCEREGs returns the REG indices of CCE i (non-interleaved mapping:
// CCE i owns REGs 6i .. 6i+5).
func (c CORESET) CCEREGs(cce int) [REGsPerCCE]int {
	var out [REGsPerCCE]int
	for j := 0; j < REGsPerCCE; j++ {
		out[j] = cce*REGsPerCCE + j
	}
	return out
}

// CandidateDataREs enumerates, in mapping order, the data REs of a DCI
// candidate occupying aggregation-level-many CCEs starting at startCCE.
func (c CORESET) CandidateDataREs(startCCE, aggLevel int) []RE {
	out := make([]RE, 0, aggLevel*REGsPerCCE*DataREsPerREG)
	for cce := startCCE; cce < startCCE+aggLevel; cce++ {
		for _, reg := range c.CCEREGs(cce) {
			prb, sym := c.REGPosition(reg)
			for _, off := range REGDataOffsets {
				out = append(out, RE{Symbol: sym, Subcarrier: prb*SubcarriersPerPRB + off})
			}
		}
	}
	return out
}

// CandidateDMRSREs enumerates the DMRS REs of a candidate, in order.
func (c CORESET) CandidateDMRSREs(startCCE, aggLevel int) []RE {
	out := make([]RE, 0, aggLevel*REGsPerCCE*len(REGDMRSOffsets))
	for cce := startCCE; cce < startCCE+aggLevel; cce++ {
		for _, reg := range c.CCEREGs(cce) {
			prb, sym := c.REGPosition(reg)
			for _, off := range REGDMRSOffsets {
				out = append(out, RE{Symbol: sym, Subcarrier: prb*SubcarriersPerPRB + off})
			}
		}
	}
	return out
}

// SearchSpaceType distinguishes common from UE-specific search spaces.
type SearchSpaceType int

// Search space types (TS 38.213 §10.1).
const (
	CommonSearchSpace SearchSpaceType = iota
	UESearchSpace
)

// String implements fmt.Stringer.
func (t SearchSpaceType) String() string {
	if t == CommonSearchSpace {
		return "common"
	}
	return "ue"
}

// SearchSpace configures blind-decoding candidates within a CORESET.
type SearchSpace struct {
	ID         int
	Type       SearchSpaceType
	Candidates map[int]int // aggregation level -> number of candidates M_L
}

// DefaultCommonCandidates mirrors the Type0/Type1 common search space
// candidate counts used by the cells in the paper's evaluation.
func DefaultCommonCandidates() map[int]int {
	return map[int]int{4: 4, 8: 2, 16: 1}
}

// DefaultUECandidates mirrors a typical UE-specific configuration.
func DefaultUECandidates() map[int]int {
	return map[int]int{1: 6, 2: 6, 4: 4, 8: 2, 16: 1}
}

// hashing multipliers A_p of TS 38.213 §10.1, indexed by p mod 3.
var hashA = [3]uint64{39827, 39829, 39839}

const hashD = 65537

// hashSlots bounds the slot argument of the hash: the slots of one frame
// at the largest numerology NR-Scope handles (Mu2).
const hashSlots = 10 << Mu2

// hashPow[p][n] is A_p^(n+1) mod D. The §10.1 recursion
// Y_{p,n} = A_p·Y_{p,n−1} mod D unrolls to Y_{p,n} = A_p^(n+1)·Y_{p,−1}
// mod D, so one multiply-mod by this table replaces n+1 of them. Every
// product stays below 2^34, so the arithmetic is exact.
var hashPow = func() (t [len(hashA)][hashSlots]uint64) {
	for p, a := range hashA {
		y := uint64(1)
		for n := range t[p] {
			y = a * y % hashD
			t[p][n] = y
		}
	}
	return t
}()

// CandidateCCE computes the first CCE of candidate m at aggregation
// level L in the given slot, per the TS 38.213 §10.1 hashing function.
// For a common search space Y is 0; for a UE-specific search space Y is
// derived from the C-RNTI, recursed once per slot (in closed form, from
// hashPow). coresetID selects the multiplier family. A slot outside the
// frame of the largest numerology has no candidates.
func CandidateCCE(ss SearchSpace, cs CORESET, rnti uint16, slot int, aggLevel, m int) (int, bool) {
	y, ok := SearchSpaceY(ss, cs, rnti, slot)
	if !ok {
		return 0, false
	}
	return HashCCE(y, cs.NumCCE(), aggLevel, m, ss.Candidates[aggLevel])
}

// SearchSpaceY is the hashing function's Y for rnti in slot (0 in a
// common search space); ok is false for a slot outside the frame of the
// largest numerology. CandidateCCE(ss, cs, rnti, slot, L, m) is
// HashCCE(y, cs.NumCCE(), L, m, ss.Candidates[L]), so a caller walking
// a level's candidates computes Y, and looks M_L up, once.
func SearchSpaceY(ss SearchSpace, cs CORESET, rnti uint16, slot int) (uint32, bool) {
	if slot < 0 || slot >= hashSlots {
		return 0, false
	}
	return hashY(ss, cs, rnti, slot), true
}

// hashY is Y_{p,n} for slot n in [0, hashSlots): 0 in a common search
// space.
func hashY(ss SearchSpace, cs CORESET, rnti uint16, slot int) uint32 {
	if ss.Type != UESearchSpace {
		return 0
	}
	return uint32(hashPow[cs.ID%3][slot] * uint64(max(rnti, 1)) % hashD)
}

// HashCCE is the hashing function's first CCE of candidate m of mL at
// aggregation level l in an nCCE-CCE CORESET, given Y. Every operand
// fits 32 bits (Y ≤ D, m < M_L, L ≤ N_CCE), and 32-bit division makes a
// whole search space hash in about 0.6 of the time 64-bit division
// takes (BenchmarkAppendSlotCandidates).
func HashCCE(y uint32, nCCE, l, m, mL int) (int, bool) {
	if l < 1 || l > nCCE || m < 0 || m >= mL {
		return 0, false
	}
	n, al := uint32(nCCE), uint32(l)
	idx := (y + uint32(m)*n/(al*uint32(mL))) % (n / al)
	return l * int(idx), true
}

// Candidate identifies one blind-decoding opportunity.
type Candidate struct {
	AggLevel int
	Index    int // candidate index m within the level
	StartCCE int
}

// LevelOffset is the index, in AppendSlotCandidates order, of candidate
// 0 at aggregation level al: the candidates of every higher level that
// fits the CORESET come first, and within a level every m < M_L hashes
// to a candidate. Candidate m of level al is at index LevelOffset(ss,
// cs, al)+m for any RNTI and any slot that has candidates.
func LevelOffset(ss SearchSpace, cs CORESET, al int) int {
	off := 0
	for _, l := range AggregationLevels {
		if l > al && l <= cs.NumCCE() {
			off += ss.Candidates[l]
		}
	}
	return off
}

// AppendSlotCandidates appends every candidate of the search space for a
// slot to dst, across all aggregation levels, in decreasing-level order
// (the order real blind decoders use: fewer large candidates first).
// Appending lets per-UE candidate enumeration in the per-TTI blind-decode loop can reuse one
// buffer per worker instead of allocating per UE per slot.
func AppendSlotCandidates(dst []Candidate, ss SearchSpace, cs CORESET, rnti uint16, slot int) []Candidate {
	if slot < 0 || slot >= hashSlots {
		return dst
	}
	y, nCCE := hashY(ss, cs, rnti, slot), cs.NumCCE()
	for i := len(AggregationLevels) - 1; i >= 0; i-- {
		l := AggregationLevels[i]
		mL := ss.Candidates[l]
		for m := 0; m < mL; m++ {
			if cce, ok := HashCCE(y, nCCE, l, m, mL); ok {
				dst = append(dst, Candidate{AggLevel: l, Index: m, StartCCE: cce})
			}
		}
	}
	return dst
}
