package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nrscope/internal/bits"
	"nrscope/internal/channel"
	"nrscope/internal/dci"
	"nrscope/internal/pdcch"
	"nrscope/internal/phy"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
)

// naiveUESpace is the paper's blind decode verbatim (§3.2, Fig. 4 "DCI
// threads") plus CCE exclusivity: for every tracked UE, for every
// candidate its search space hashes to in this slot, run the whole
// candidate decode and check the CRC under that UE's RNTI — but emit a
// find only if no confirmed DCI of any UE at a lower aggregation level
// shares its CCEs (a CCE carries one PDCCH). No position cache, no RNTI
// recovery, no index — the slot-level oracle decodeSlot's UE-specific
// pass is held to. The common-search-space pass is production's own, run
// after the UE pass against the UE claims when both share one control
// region; its result is returned for comparison too.
func naiveUESpace(s *Scope, rntis []uint16, capt *radio.Capture) (ue []foundDCI, css *decodeResult) {
	css = &decodeResult{}
	if capt.Grid == nil || s.mib == nil {
		return nil, css
	}
	slot := capt.Ref.Slot
	sc := &slotScratch{occupied: s.codec.OccupiedCCEsInto(nil, capt.Grid, s.coreset, slot)}
	sc.claimed = make([]bool, len(sc.occupied))
	occupied, claimed := sc.occupied, sc.claimed
	if !s.ueCoreset.SameRegion(s.coreset) {
		occupied = s.codec.OccupiedCCEsInto(nil, capt.Grid, s.ueCoreset, slot)
		claimed = make([]bool, len(occupied))
	}
	if s.sib1 != nil && s.setup != nil {
		ue = naiveTiers(s, rntis, capt, occupied, claimed)
	}
	s.decodeCommon(capt, css, sc)
	return ue, css
}

// naiveTiers is naiveUESpace's UE pass: the paper's per-UE ×
// per-candidate sweep, one aggregation level at a time from the lowest,
// each level's finds claiming their CCEs before the next. Finds are
// returned in tracked-UE order, then candidate order.
func naiveTiers(s *Scope, rntis []uint16, capt *radio.Capture, occupied, claimed []bool) []foundDCI {
	slot := capt.Ref.Slot
	class := dci.Fallback
	if s.setup.NonFallback {
		class = dci.NonFallback
	}
	size := dci.ClassSize(class, s.dataCfg)

	found := make([][]foundDCI, len(rntis)) // per UE, in candidate order
	for _, al := range phy.AggregationLevels {
		var tier []phy.Candidate
		for u, rnti := range rntis {
			for _, cand := range phy.AppendSlotCandidates(nil, s.ueSS, s.ueCoreset, rnti, slot) {
				if cand.AggLevel != al || !spanTrue(occupied, cand.StartCCE, al) || anyTrue(claimed, cand.StartCCE, al) || mineAt(found[u], cand) {
					continue
				}
				block, err := s.codec.DecodeCandidateInto(nil, capt.Grid, s.ueCoreset, cand, slot, size, capt.N0)
				if err != nil {
					continue
				}
				payload, ok := bits.CheckDCICRC(block, rnti)
				if !ok {
					continue
				}
				d, err := dci.Unpack(payload, class, s.dataCfg)
				if err != nil {
					continue
				}
				grant, err := dci.ToGrant(d, rnti, s.dataCfg, s.link)
				if err != nil {
					continue
				}
				tier = append(tier, cand)
				found[u] = append(found[u], foundDCI{rnti: rnti, d: d, grant: grant, cand: cand})
			}
		}
		for _, cand := range tier {
			markTrue(claimed, cand.StartCCE, cand.AggLevel)
		}
	}
	var out []foundDCI
	for _, mine := range found {
		// Levels were swept upwards; candidate order runs from the
		// highest level down, by index within a level.
		slices.SortStableFunc(mine, func(a, b foundDCI) int {
			return cmp.Or(b.cand.AggLevel-a.cand.AggLevel, a.cand.Index-b.cand.Index)
		})
		out = append(out, mine...)
	}
	return out
}

// mineAt reports whether one of a UE's own finds sits at cand's
// position: the same-UE overlap rule within one aggregation level, where
// two hashed candidates can land on the same CCEs.
func mineAt(mine []foundDCI, cand phy.Candidate) bool {
	for _, f := range mine {
		if f.cand.AggLevel == cand.AggLevel && f.cand.StartCCE == cand.StartCCE {
			return true
		}
	}
	return false
}

// overlapsAny reports whether cand shares CCEs with any of prev.
func overlapsAny(prev []phy.Candidate, cand phy.Candidate) bool {
	for _, p := range prev {
		if cand.StartCCE < p.StartCCE+p.AggLevel && p.StartCCE < cand.StartCCE+cand.AggLevel {
			return true
		}
	}
	return false
}

// stepAgainstOracle runs one capture through decodeSlot and the naive
// scope on the same state, requires the same UE DCIs (RNTI,
// aggregation level, start CCE, unpacked payload, grant) in the same
// order and the same common-search-space finds, merges, and returns the
// UE DCIs found.
func stepAgainstOracle(t *testing.T, s *Scope, capt *radio.Capture) []foundDCI {
	t.Helper()
	want, wantCSS := naiveUESpace(s, s.KnownUEs(), capt)
	res := s.decodeSlot(capt)
	if len(res.data) != len(want) {
		t.Fatalf("slot %d: decodeSlot found %d UE DCIs, naive scope %d\n got %+v\nwant %+v",
			capt.SlotIdx, len(res.data), len(want), res.data, want)
	}
	for i := range want {
		if res.data[i] != want[i] {
			t.Fatalf("slot %d, DCI %d:\n got %+v\nwant %+v", capt.SlotIdx, i, res.data[i], want[i])
		}
	}
	if !slices.Equal(res.common, wantCSS.common) || !slices.Equal(res.newUEs, wantCSS.newUEs) {
		t.Fatalf("slot %d: CSS finds differ:\n got %+v %+v\nwant %+v %+v",
			capt.SlotIdx, res.common, res.newUEs, wantCSS.common, wantCSS.newUEs)
	}
	s.merge(res)
	return want
}

// TestDecodeSlotMatchesNaiveOracle is the slot-level guard of the
// per-position blind decode: over random cell configurations, receiver
// SNRs on both sides of the Fig. 13 coverage cliff, and enough UEs that
// hashed candidates of different UEs collide, decodeSlot must find
// exactly what the paper's per-UE × per-candidate algorithm finds, slot
// for slot. The low-CQI case has the gNB send its UE DCIs at AL-4 and
// AL-8, so the lower levels decode inside them and must claim nothing.
func TestDecodeSlotMatchesNaiveOracle(t *testing.T) {
	type oracleCase struct {
		name  string
		cfg   ran.CellConfig
		ues   int
		snrDB float64 // receiver SNR once every UE is tracked; attach runs at 25 dB
		slots int
		ueSNR float64 // gNB<->UE link SNR, which sets the CQI; 0 keeps the cell's
	}
	lowCQI := oracleCase{"amari-8ue-lowCQI", amari(), 8, 25, 400, 5}
	cases := []oracleCase{
		{"amari-64ue-25dB", amari(), 64, 25, 700, 0},
		{"amari-64ue-4dB", amari(), 64, 4, 700, 0},
		{"amari-8ue-2dB", amari(), 8, 2, 900, 0},
		lowCQI,
	}
	trials, randomSlots := 6, 900
	if testing.Short() {
		lowCQI.slots = 200
		cases = []oracleCase{{"amari-16ue-25dB", amari(), 16, 25, 200, 0}, {"amari-8ue-3dB", amari(), 8, 3, 200, 0}, lowCQI}
		trials, randomSlots = 2, 250
	}
	for trial := 0; trial < trials; trial++ {
		if cfg, ok := randomCellConfig(t, trial); ok {
			snr := []float64{25, 6, 3}[trial%3]
			cases = append(cases, oracleCase{fmt.Sprintf("random%d-%.0fdB", trial, snr), cfg, 3, snr, randomSlots, 0})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gnb, err := ran.NewGNB(tc.cfg, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			ueCfg := tc.cfg
			if tc.ueSNR != 0 {
				ueCfg.BaseSNRdB = tc.ueSNR
			}
			for i := 0; i < tc.ues; i++ {
				gnb.AddUE(bulk(ueCfg), -1)
			}
			s := New(tc.cfg.CellID)
			attach := radio.NewReceiver(channel.Normal, 25, tc.cfg.Seed^0xACE)
			steady := radio.NewReceiver(channel.Normal, tc.snrDB, tc.cfg.Seed^0xBEE)
			found, sent, highAL := 0, 0, 0 // UE DCIs decoded (at AL >= 4) / transmitted once every UE is tracked
			for i := 0; i < tc.slots; i++ {
				out := gnb.Step()
				if len(s.KnownUEs()) < tc.ues {
					stepAgainstOracle(t, s, attach.Capture(out.SlotIdx, out.Ref, out.Grid))
					continue
				}
				for _, f := range stepAgainstOracle(t, s, steady.Capture(out.SlotIdx, out.Ref, out.Grid)) {
					found++
					if f.cand.AggLevel >= 4 {
						highAL++
					}
				}
				for _, gt := range out.GT {
					if !gt.Common {
						sent++
					}
				}
			}
			if found == 0 {
				t.Fatalf("nothing compared at %.0f dB (%d UEs tracked of %d)", tc.snrDB, len(s.KnownUEs()), tc.ues)
			}
			if tc.snrDB < 5 && float64(found) > 0.97*float64(sent) {
				t.Errorf("%.0f dB: %d of %d DCIs found — not beyond the coverage cliff", tc.snrDB, found, sent)
			}
			if tc.ueSNR != 0 && highAL < found/2 {
				t.Errorf("low-CQI cell: %d of %d UE DCIs at AL >= 4", highAL, found)
			}
		})
	}
}

// TestDecodeSlotMatchesNaiveOracleDisjointCoreset covers what the gNB
// simulator cannot produce: a UE CORESET in a different control region
// than CORESET 0 (its own occupancy sweep, no claim mask carried over),
// with 64 tracked UEs whose DCIs are placed by hand on their hashed
// candidates and received on both sides of the coverage cliff.
func TestDecodeSlotMatchesNaiveOracleDisjointCoreset(t *testing.T) {
	cfg := amari()
	slots := 400
	if testing.Short() {
		slots = 40
	}
	for _, snrDB := range []float64{25, 4} {
		rntis := make([]uint16, 64)
		for i := range rntis {
			rntis[i] = 0x4601 + uint16(i)
		}
		s, ueCS := mismatchScope(t, cfg, rntis...)
		rng := rand.New(rand.NewSource(int64(snrDB) + 17))
		rx := radio.NewReceiver(channel.Normal, snrDB, 5)
		enc := pdcch.New(cfg.CellID)
		riv, err := phy.EncodeRIV(cfg.CarrierPRBs, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for i := 0; i < slots; i++ {
			ref := phy.SlotRef{SFN: i / cfg.Mu.SlotsPerFrame(), Slot: i % cfg.Mu.SlotsPerFrame()}
			g := phy.NewGrid(cfg.CarrierPRBs)
			var placed []phy.Candidate
			for k := 0; k < 4; k++ {
				rnti := rntis[rng.Intn(len(rntis))]
				cands := phy.AppendSlotCandidates(nil, s.ueSS, ueCS, rnti, ref.Slot)
				cand := cands[rng.Intn(len(cands))]
				d := dci.DCI{Format: dci.Format11, FreqAlloc: riv, MCS: rng.Intn(28), NDI: uint8(rng.Intn(2)), HARQID: rng.Intn(16), DAI: 1, TPC: 1}
				payload, err := dci.Pack(d, s.dataCfg)
				if err != nil {
					t.Fatal(err)
				}
				if overlapsAny(placed, cand) || !pdcch.PayloadFits(len(payload), cand.AggLevel) {
					continue
				}
				if err := enc.Encode(g, ueCS, cand, ref.Slot, payload, rnti); err != nil {
					t.Fatal(err)
				}
				placed = append(placed, cand)
			}
			found += len(stepAgainstOracle(t, s, rx.Capture(100+i, ref, g)))
		}
		if found == 0 {
			t.Fatalf("%.0f dB: no DCI found in the dedicated CORESET", snrDB)
		}
	}
}

// TestDecodeSlotMatchesNaiveOracleMixedLevels places DCIs by hand on a
// two-symbol CORESET shared by the common and UE search spaces (16 CCEs,
// so every aggregation level fits): each slot holds two adjacent AL-1
// DCIs of different UEs under one AL-2 (and AL-4) position, plus DCIs at
// random higher levels, received on both sides of the coverage cliff.
// decodeSlot must match the oracle's CCE exclusivity slot for slot.
func TestDecodeSlotMatchesNaiveOracleMixedLevels(t *testing.T) {
	cfg := amari()
	cfg.Coreset0.Duration = 2
	cfg.Setup.CORESET.Duration = 2
	slots := 300
	if testing.Short() {
		slots = 40
	}
	rntis := trackedRNTIs(64)
	for _, snrDB := range []float64{25, 4} {
		s := handScope(cfg, cfg.Setup.CORESET, rntis...)
		if n := s.ueCoreset.NumCCE(); n != 16 {
			t.Fatalf("UE CORESET has %d CCEs, want 16", n)
		}
		rng := rand.New(rand.NewSource(int64(snrDB) + 29))
		rx := radio.NewReceiver(channel.Normal, snrDB, 7)
		levels := map[int]int{}
		for i := 0; i < slots; i++ {
			ref := phy.SlotRef{SFN: i / cfg.Mu.SlotsPerFrame(), Slot: i % cfg.Mu.SlotsPerFrame()}
			g := phy.NewGrid(cfg.CarrierPRBs)
			var placed []phy.Candidate
			used := map[uint16]bool{}
			place := func(rnti uint16, cand phy.Candidate) bool {
				if used[rnti] || overlapsAny(placed, cand) {
					return false
				}
				placeUEDCI(t, s, g, ref, cand, rnti, rng.Intn(16))
				placed = append(placed, cand)
				used[rnti] = true
				return true
			}
			// An adjacent AL-1 pair of two UEs inside one AL-2 position.
			pair := 2 * rng.Intn(8)
			for _, cce := range []int{pair, pair + 1} {
				for _, rnti := range rntis {
					if cand, ok := candAt(s, rnti, ref.Slot, 1, cce); ok && place(rnti, cand) {
						break
					}
				}
			}
			for k := 0; k < 6; k++ {
				rnti := rntis[rng.Intn(len(rntis))]
				cands := phy.AppendSlotCandidates(nil, s.ueSS, s.ueCoreset, rnti, ref.Slot)
				place(rnti, cands[rng.Intn(len(cands))])
			}
			for _, f := range stepAgainstOracle(t, s, rx.Capture(100+i, ref, g)) {
				levels[f.cand.AggLevel]++
			}
		}
		if snrDB > 20 && (levels[1] == 0 || levels[2]+levels[4] == 0 || levels[8]+levels[16] == 0) {
			t.Fatalf("%.0f dB: found DCIs per level %v, want every tier exercised", snrDB, levels)
		}
	}
}
