package core

import (
	"fmt"
	"math/rand"
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
// threads"): for every tracked UE, for every candidate its search space
// hashes to in this slot, run the whole candidate decode and check the
// CRC under that UE's RNTI. No position cache, no RNTI recovery, no
// index — the slot-level oracle decodeSlot's UE-specific pass is held
// to. The common-search-space pass is production's own (it only supplies
// the claim mask here), as are the mask and overlap predicates.
func naiveUESpace(s *Scope, snap *snapshot, rntis []uint16, capt *radio.Capture) []foundDCI {
	if capt.Grid == nil || snap.mib == nil || snap.sib1 == nil || snap.setup == nil {
		return nil
	}
	slot := capt.Ref.Slot
	sc := &slotScratch{occupied: s.codec.OccupiedCCEs(capt.Grid, snap.coreset, slot)}
	sc.claimed = make([]bool, len(sc.occupied))
	s.decodeCommon(snap, capt, &decodeResult{}, sc)
	occupied, claimed := sc.occupied, sc.claimed
	if !snap.ueCoreset.SameRegion(snap.coreset) {
		occupied = s.codec.OccupiedCCEs(capt.Grid, snap.ueCoreset, slot)
		claimed = make([]bool, len(occupied))
	}
	class := dci.Fallback
	if snap.setup.NonFallback {
		class = dci.NonFallback
	}
	size := dci.ClassSize(class, snap.dataCfg)

	var out []foundDCI
	for _, rnti := range rntis {
		var mine []phy.Candidate
		for _, cand := range phy.SlotCandidates(snap.ueSS, snap.ueCoreset, rnti, slot) {
			if !spanTrue(occupied, cand.StartCCE, cand.AggLevel) || anyTrue(claimed, cand.StartCCE, cand.AggLevel) || overlapsAny(mine, cand) {
				continue
			}
			block, err := s.codec.DecodeCandidate(capt.Grid, snap.ueCoreset, cand, slot, size, capt.N0)
			if err != nil {
				continue
			}
			payload, ok := bits.CheckDCICRC(block, rnti)
			if !ok {
				continue
			}
			d, err := dci.Unpack(payload, class, snap.dataCfg)
			if err != nil {
				continue
			}
			grant, err := dci.ToGrant(d, rnti, snap.dataCfg, snap.link)
			if err != nil {
				continue
			}
			mine = append(mine, cand)
			out = append(out, foundDCI{rnti: rnti, d: d, grant: grant, cand: cand})
		}
	}
	return out
}

// stepAgainstOracle runs one capture through decodeSlot and the naive
// scope on the same snapshot, requires the same DCIs (RNTI, aggregation
// level, start CCE, unpacked payload, grant) in the same order, merges,
// and returns how many were found.
func stepAgainstOracle(t *testing.T, s *Scope, capt *radio.Capture) int {
	t.Helper()
	snap := s.snapshot()
	want := naiveUESpace(s, snap, s.KnownUEs(), capt)
	res := s.decodeSlot(snap, capt)
	if len(res.data) != len(want) {
		t.Fatalf("slot %d: decodeSlot found %d UE DCIs, naive scope %d\n got %+v\nwant %+v",
			capt.SlotIdx, len(res.data), len(want), res.data, want)
	}
	for i := range want {
		if res.data[i] != want[i] {
			t.Fatalf("slot %d, DCI %d:\n got %+v\nwant %+v", capt.SlotIdx, i, res.data[i], want[i])
		}
	}
	s.merge(res)
	return len(want)
}

// TestDecodeSlotMatchesNaiveOracle is the slot-level guard of the
// per-position blind decode: over random cell configurations, receiver
// SNRs on both sides of the Fig. 13 coverage cliff, and enough UEs that
// hashed candidates of different UEs collide, decodeSlot must find
// exactly what the paper's per-UE × per-candidate algorithm finds, slot
// for slot.
func TestDecodeSlotMatchesNaiveOracle(t *testing.T) {
	type oracleCase struct {
		name  string
		cfg   ran.CellConfig
		ues   int
		snrDB float64 // receiver SNR once every UE is tracked; attach runs at 25 dB
		slots int
	}
	cases := []oracleCase{
		{"amari-64ue-25dB", amari(), 64, 25, 700},
		{"amari-64ue-4dB", amari(), 64, 4, 700},
		{"amari-8ue-2dB", amari(), 8, 2, 900},
	}
	trials, randomSlots := 6, 900
	if testing.Short() {
		cases = []oracleCase{{"amari-16ue-25dB", amari(), 16, 25, 200}, {"amari-8ue-3dB", amari(), 8, 3, 200}}
		trials, randomSlots = 2, 250
	}
	for trial := 0; trial < trials; trial++ {
		if cfg, ok := randomCellConfig(t, trial); ok {
			snr := []float64{25, 6, 3}[trial%3]
			cases = append(cases, oracleCase{fmt.Sprintf("random%d-%.0fdB", trial, snr), cfg, 3, snr, randomSlots})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gnb, err := ran.NewGNB(tc.cfg, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.ues; i++ {
				gnb.AddUE(bulk(tc.cfg), -1)
			}
			s := New(tc.cfg.CellID)
			attach := radio.NewReceiver(channel.Normal, 25, tc.cfg.Seed^0xACE)
			steady := radio.NewReceiver(channel.Normal, tc.snrDB, tc.cfg.Seed^0xBEE)
			found, sent := 0, 0 // UE DCIs decoded / transmitted once every UE is tracked
			for i := 0; i < tc.slots; i++ {
				out := gnb.Step()
				if len(s.KnownUEs()) < tc.ues {
					stepAgainstOracle(t, s, attach.Capture(out.SlotIdx, out.Ref, out.Grid))
					continue
				}
				found += stepAgainstOracle(t, s, steady.Capture(out.SlotIdx, out.Ref, out.Grid))
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
				cands := phy.SlotCandidates(s.ueSS, ueCS, rnti, ref.Slot)
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
			found += stepAgainstOracle(t, s, rx.Capture(100+i, ref, g))
		}
		if found == 0 {
			t.Fatalf("%.0f dB: no DCI found in the dedicated CORESET", snrDB)
		}
	}
}
