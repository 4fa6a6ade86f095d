package core

import (
	"fmt"
	"testing"

	"nrscope/internal/dci"
	"nrscope/internal/harq"
	"nrscope/internal/pdcch"
	"nrscope/internal/phy"
	"nrscope/internal/raceflag"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/rrc"
)

// mismatchScope builds a scope whose UE CORESET covers a different
// control region than CORESET 0 — a configuration the gNB simulator
// never produces (it reuses CORESET 0's span), so the state is
// assembled by hand, tracking rntis. Returns the scope and the dedicated
// UE CORESET.
func mismatchScope(t *testing.T, cfg ran.CellConfig, rntis ...uint16) (*Scope, phy.CORESET) {
	t.Helper()
	ueCS := phy.CORESET{ID: 1, StartPRB: 6, NumPRB: 24, Duration: 1, StartSym: 2}
	if ueCS.SameRegion(cfg.Coreset0) {
		t.Fatal("test CORESET accidentally matches CORESET 0")
	}
	return handScope(cfg, ueCS, rntis...), ueCS
}

// handScope builds a scope past cell acquisition and RRC Setup, with UE
// CORESET ueCS, tracking rntis — the state a live cell reaches after
// attach, assembled by hand so DCIs can be placed on a grid directly.
func handScope(cfg ran.CellConfig, ueCS phy.CORESET, rntis ...uint16) *Scope {
	mib := rrc.MIB{
		Mu: cfg.Mu, CellID: cfg.CellID,
		Coreset0StartPRB: cfg.Coreset0.StartPRB,
		Coreset0NumPRB:   cfg.Coreset0.NumPRB,
		Coreset0Duration: cfg.Coreset0.Duration,
	}
	s := New(cfg.CellID, WithManualCellInfo(mib, cfg.SIB1()))
	setup := cfg.Setup
	setup.CORESET = ueCS
	s.setup = &setup
	s.ueCoreset = ueCS
	s.ueSS = phy.SearchSpace{ID: ueCS.ID, Type: phy.UESearchSpace, Candidates: setup.UECandidates}
	s.link = setup.LinkConfig()
	for _, rnti := range rntis {
		s.addTrack(&UETrack{RNTI: rnti, DL: harq.NewTracker(), UL: harq.NewTracker()})
	}
	return s
}

// placeUEDCI encodes a DCI 1_1 for rnti on cand of the scope's UE
// CORESET and returns it.
func placeUEDCI(t testing.TB, s *Scope, g *phy.Grid, ref phy.SlotRef, cand phy.Candidate, rnti uint16, harqID int) dci.DCI {
	t.Helper()
	riv, err := phy.EncodeRIV(s.sib1.CarrierPRBs, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := dci.DCI{Format: dci.Format11, FreqAlloc: riv, MCS: 10, NDI: 1, HARQID: harqID, DAI: 1, TPC: 1}
	payload, err := dci.Pack(d, s.dataCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pdcch.New(s.cellID).Encode(g, s.ueCoreset, cand, ref.Slot, payload, rnti); err != nil {
		t.Fatal(err)
	}
	return d
}

// packedAL1Slot places k AL-1 DCIs on CCEs 0..k-1 of a same-region UE
// CORESET, each addressed to a different tracked UE whose AL-1
// candidates hash to that CCE, and returns the capture.
func packedAL1Slot(t testing.TB, s *Scope, rntis []uint16, k int) *radio.Capture {
	t.Helper()
	ref := phy.SlotRef{SFN: 0, Slot: 1}
	g := phy.NewGrid(s.sib1.CarrierPRBs)
	used := map[uint16]bool{}
	for cce := 0; cce < k; cce++ {
		placed := false
		for _, rnti := range rntis {
			if cand, ok := candAt(s, rnti, ref.Slot, 1, cce); ok && !used[rnti] {
				placeUEDCI(t, s, g, ref, cand, rnti, cce)
				used[rnti], placed = true, true
				break
			}
		}
		if !placed {
			t.Fatalf("no tracked UE has an AL-1 candidate at CCE %d", cce)
		}
	}
	return &radio.Capture{SlotIdx: 41, Ref: ref, Grid: g, N0: 1e-4}
}

// candAt returns rnti's first hashed candidate at (al, cce) in slot.
func candAt(s *Scope, rnti uint16, slot, al, cce int) (phy.Candidate, bool) {
	for _, cand := range phy.SlotCandidates(s.ueSS, s.ueCoreset, rnti, slot) {
		if cand.AggLevel == al && cand.StartCCE == cce {
			return cand, true
		}
	}
	return phy.Candidate{}, false
}

// trackedRNTIs returns n consecutive C-RNTIs.
func trackedRNTIs(n int) []uint16 {
	rntis := make([]uint16, n)
	for i := range rntis {
		rntis[i] = 0x4601 + uint16(i)
	}
	return rntis
}

// TestUECoresetDistinctRegionDecodes is the regression test for the
// occupancy-mask mismatch: when the UE CORESET covers a different
// control region than CORESET 0, the USS pass must sweep the UE CORESET
// itself rather than indexing CORESET 0's occupancy mask with UE-CORESET
// CCE numbers (which gates every candidate out — CORESET 0 is silent).
func TestUECoresetDistinctRegionDecodes(t *testing.T) {
	cfg := amari()
	rnti := uint16(0x4601)
	s, ueCS := mismatchScope(t, cfg, rnti)

	ref := phy.SlotRef{SFN: 0, Slot: 1}
	g := phy.NewGrid(cfg.CarrierPRBs)
	riv, err := phy.EncodeRIV(cfg.CarrierPRBs, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := dci.DCI{
		Format: dci.Format11, FreqAlloc: riv, TimeAlloc: 0,
		MCS: 10, NDI: 1, RV: 0, HARQID: 2, DAI: 1, TPC: 1,
	}
	payload, err := dci.Pack(d, s.dataCfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := dci.ClassSize(dci.NonFallback, s.dataCfg); len(payload) != want {
		t.Fatalf("packed payload %d bits, class size %d", len(payload), want)
	}
	cands := phy.SlotCandidates(s.ueSS, ueCS, rnti, ref.Slot)
	if len(cands) == 0 {
		t.Fatal("no UE candidates in the dedicated CORESET")
	}
	cand := cands[0]
	enc := pdcch.New(cfg.CellID)
	if err := enc.Encode(g, ueCS, cand, ref.Slot, payload, rnti); err != nil {
		t.Fatal(err)
	}

	// Precondition that makes the regression meaningful: CORESET 0 is
	// silent, so its occupancy mask would gate out every UE candidate.
	for i, occ := range s.codec.OccupiedCCEs(g, s.coreset, ref.Slot) {
		if occ {
			t.Fatalf("CORESET 0 CCE %d unexpectedly occupied", i)
		}
	}

	res := s.ProcessSlot(&radio.Capture{SlotIdx: 41, Ref: ref, Grid: g, N0: 1e-4})
	found := false
	for _, rec := range res.Records {
		if !rec.Common && rec.RNTI == rnti && rec.AggLevel == cand.AggLevel && rec.StartCCE == cand.StartCCE {
			found = true
		}
	}
	if !found {
		t.Fatalf("DCI in the dedicated UE CORESET not decoded; records: %+v", res.Records)
	}
}

// TestInfeasiblePositionsCountEmptyNotFailed: candidate positions whose
// aggregation level cannot carry the payload at all are no-transmission
// positions, not decode failures.
func TestInfeasiblePositionsCountEmptyNotFailed(t *testing.T) {
	s := New(500)
	cs := phy.CORESET{ID: 1, StartPRB: 0, NumPRB: 48, Duration: 1, StartSym: 0}
	s.ueCoreset = cs
	s.ueSS = phy.SearchSpace{ID: 1, Type: phy.UESearchSpace, Candidates: phy.DefaultUECandidates()}
	capt := &radio.Capture{Ref: phy.SlotRef{}, Grid: phy.NewGrid(51), N0: 1e-2}
	occupied := boolMask(nil, cs.NumCCE(), true)
	claimed := boolMask(nil, cs.NumCCE(), false)
	// 100 payload bits: K = 124 exceeds AL1's capacity (E = 108 with 20
	// punctured mother bits) but fits every higher level.
	if pdcch.PayloadFits(100, 1) || !pdcch.PayloadFits(100, 2) {
		t.Fatal("payload size does not split the aggregation levels as intended")
	}
	emptyBefore := met.positionsEmpty.Value()
	failedBefore := met.decodeFailed.Value()
	decodedBefore := met.positions.Value()

	var sc slotScratch
	s.decodePositions(capt, dci.Fallback, 100, occupied, claimed, &sc)

	// 8 CCEs: 8 AL1 positions are infeasible; 4 AL2 + 2 AL4 + 1 AL8
	// decode (a silent grid still polar-decodes, to garbage).
	if got := met.positionsEmpty.Value() - emptyBefore; got != 8 {
		t.Errorf("positionsEmpty delta = %d, want 8", got)
	}
	if got := met.decodeFailed.Value() - failedBefore; got != 0 {
		t.Errorf("decodeFailed delta = %d, want 0", got)
	}
	if got := met.positions.Value() - decodedBefore; got != 7 {
		t.Errorf("positions decoded delta = %d, want 7", got)
	}
}

// TestPosArenaIndexing pins the flat arena's arithmetic addressing:
// entries run level by level, lowest first, in CCE order; find must
// agree with that layout, blocks must be disjoint and capacity capped,
// and reset must recycle the backing arrays.
func TestPosArenaIndexing(t *testing.T) {
	ss := phy.SearchSpace{Candidates: phy.DefaultUECandidates()}
	const blockLen = 67
	var a posArena
	a.reset(ss, 8, blockLen)
	if a.n != 8+4+2+1 {
		t.Fatalf("arena entries = %d, want 15", a.n)
	}
	idx := 0
	for _, al := range phy.AggregationLevels {
		for cce := 0; cce+al <= 8; cce += al {
			if a.rnti[idx] != noRNTI {
				t.Fatalf("undecoded position (%d, %d) names RNTI %#x", al, cce, a.rnti[idx])
			}
			blk := a.writeBlock(idx)
			if cap(blk) != blockLen || &blk[:1][0] != &a.blocks[idx*blockLen] {
				t.Fatalf("writeBlock(%d) cap = %d, want %d at entry %d (no spill into neighbours)", idx, cap(blk), blockLen, idx)
			}
			if got := a.find(al, cce); got != idx {
				t.Fatalf("find(%d, %d) = %d, want entry %d", al, cce, got, idx)
			}
			a.rnti[idx] = int32(idx)
			idx++
		}
	}
	if idx != a.n {
		t.Fatalf("walked %d entries, arena has %d", idx, a.n)
	}
	if a.find(4, 2) >= 0 {
		t.Error("unaligned CCE accepted")
	}
	if a.find(3, 0) >= 0 {
		t.Error("invalid aggregation level accepted")
	}
	if a.find(16, 0) >= 0 || a.find(8, 8) >= 0 {
		t.Error("position outside the CORESET accepted")
	}
	prev := &a.blocks[0]
	a.reset(ss, 8, blockLen)
	if &a.blocks[0] != prev {
		t.Error("reset reallocated the block arena")
	}
	for idx := 0; idx < a.n; idx++ {
		if a.rnti[idx] != noRNTI {
			t.Fatal("reset did not clear the recovered RNTIs")
		}
	}
}

// TestConfirmedDCIsClaimTheirCCEs pins the work CCE exclusivity saves.
// A CCE carries one PDCCH: once the AL-1 level confirms k packed DCIs,
// no higher-level UE position and no common-search-space candidate over
// their CCEs is decoded — exactly k positions, k CRC evaluations, and
// none in the CSS pass. A lone AL-8 DCI is still found: the lower
// levels decode inside it, confirm nothing, and so claim nothing.
func TestConfirmedDCIsClaimTheirCCEs(t *testing.T) {
	cfg := amari()
	rntis := trackedRNTIs(64)
	for _, k := range []int{3, 8} {
		s := handScope(cfg, cfg.Setup.CORESET, rntis...)
		capt := packedAL1Slot(t, s, rntis, k)
		posBefore, attBefore, matchBefore := met.positions.Value(), met.candAttempted.Value(), met.candMatched.Value()
		res := s.decodeSlot(capt)
		if len(res.data) != k || len(res.common) != 0 || len(res.newUEs) != 0 {
			t.Fatalf("k=%d: %d UE DCIs, %d common, %d new UEs; want %d, 0, 0", k, len(res.data), len(res.common), len(res.newUEs), k)
		}
		for _, f := range res.data {
			if f.cand.AggLevel != 1 {
				t.Errorf("k=%d: found %+v, want only AL-1 DCIs", k, f.cand)
			}
		}
		if got := met.positions.Value() - posBefore; got != int64(k) {
			t.Errorf("k=%d: %d positions decoded, want %d", k, got, k)
		}
		if got := met.candAttempted.Value() - attBefore; got != int64(k) {
			t.Errorf("k=%d: %d CRC evaluations, want %d (none in the CSS pass)", k, got, k)
		}
		if got := met.candMatched.Value() - matchBefore; got != int64(k) {
			t.Errorf("k=%d: %d candidates matched, want %d", k, got, k)
		}
	}

	s := handScope(cfg, cfg.Setup.CORESET, rntis...)
	ref := phy.SlotRef{SFN: 0, Slot: 1}
	g := phy.NewGrid(cfg.CarrierPRBs)
	var cand phy.Candidate
	for _, c := range phy.SlotCandidates(s.ueSS, s.ueCoreset, rntis[0], ref.Slot) {
		if c.AggLevel == 8 {
			cand = c // the first in candidate order, if two share CCEs
			break
		}
	}
	if cand.AggLevel != 8 {
		t.Fatal("no AL-8 candidate")
	}
	d := placeUEDCI(t, s, g, ref, cand, rntis[0], 5)
	res := s.decodeSlot(&radio.Capture{SlotIdx: 41, Ref: ref, Grid: g, N0: 1e-4})
	if len(res.data) != 1 || res.data[0].rnti != rntis[0] || res.data[0].cand != cand || res.data[0].d != d {
		t.Fatalf("AL-8 DCI: found %+v, want %#x at %+v", res.data, rntis[0], cand)
	}
}

// TestProcessSlotSteadyStateAllocs pins the allocations of a steady-state
// slot to what it returns: the SlotResult, its pre-sized records, the
// spare-capacity report and its UE list. The decode result and its find
// lists, the masks, the arena and the spare walk's buffer are owned by
// the Scope and reused. The bound is the same at 16 and at
// 128 UEs, so nothing may scale with the tracked-UE count either.
func TestProcessSlotSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	for _, ues := range []int{16, 128} {
		t.Run(fmt.Sprintf("%dUEs", ues), func(t *testing.T) {
			cfg := amari()
			tb := newTestbed(t, cfg, 22)
			for i := 0; i < ues; i++ {
				tb.gnb.AddUE(bulk(cfg), -1)
			}
			// RACH admits a few UEs per frame: 128 take longer to attach.
			for i := 0; i < 600 || len(tb.scope.KnownUEs()) < ues && i < 4000; i++ {
				tb.step()
			}
			if got := len(tb.scope.KnownUEs()); got != ues {
				t.Fatalf("scope tracks %d of %d UEs after warm-up", got, ues)
			}
			caps := make([]*radio.Capture, 100) // a multiple of the TDD period
			for i := range caps {
				caps[i] = tb.stepRaw()
			}
			next := 0
			replay := func() {
				c := caps[next%len(caps)]
				tb.scope.ProcessSlot(c)
				c.SlotIdx += len(caps) // keep slot indices advancing across laps
				next++
			}
			for i := 0; i < 2*len(caps); i++ {
				replay()
			}
			got := testing.AllocsPerRun(3*len(caps), replay)
			t.Logf("%.2f allocs per slot", got)
			if got > 4 {
				t.Errorf("ProcessSlot allocates %.2f times per steady-state slot, want <= 4", got)
			}
		})
	}
}

// TestDecodeSlotZeroAllocWarm pins the plan path: with the codec caches
// warm, a decodeSlot that resolves both decode plans for a new slot,
// sweeps occupancy, decodes and confirms eight packed AL-1 DCIs (field
// table unpack, TBS memo, emission-key sort) and runs the CSS pass
// allocates nothing — in a same-region UE CORESET and in a dedicated
// one with its own sweep.
func TestDecodeSlotZeroAllocWarm(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := amari()
	rntis := trackedRNTIs(64)
	for _, dedicated := range []bool{false, true} {
		s := handScope(cfg, cfg.Setup.CORESET, rntis...)
		packed := packedAL1Slot(t, s, rntis, 8)
		want := 8
		if dedicated {
			s, _ = mismatchScope(t, cfg, rntis...)
			want = 0 // the DCIs sit on CORESET 0's CCEs, not the UE CORESET's
		}
		caps := []*radio.Capture{packed, {SlotIdx: 42, Ref: phy.SlotRef{SFN: 0, Slot: 2}, Grid: phy.NewGrid(cfg.CarrierPRBs), N0: 1e-4}}
		next := 0
		step := func() {
			res := s.decodeSlot(caps[next%2])
			if next%2 == 0 && len(res.data) != want {
				t.Fatalf("dedicated=%v: %d UE DCIs, want %d", dedicated, len(res.data), want)
			}
			next++
		}
		for i := 0; i < 4; i++ {
			step()
		}
		if n := testing.AllocsPerRun(50, step); n != 0 {
			t.Errorf("dedicated=%v: decodeSlot allocates %.1f times per warm slot, want 0", dedicated, n)
		}
	}
}

// BenchmarkDecodePositions measures the RNTI-independent half of the
// blind decode on a slot packed with eight AL-1 DCIs of tracked UEs: the
// AL-1 level decodes and confirms them, and their claims leave nothing
// for the higher levels. positions/op reports the decodes per slot.
func BenchmarkDecodePositions(b *testing.B) {
	cfg := amari()
	rntis := trackedRNTIs(64)
	s := handScope(cfg, cfg.Setup.CORESET, rntis...)
	capt := packedAL1Slot(b, s, rntis, 8)
	payloadBits := dci.ClassSize(dci.NonFallback, s.dataCfg)
	occupied := s.codec.OccupiedCCEs(capt.Grid, s.ueCoreset, capt.Ref.Slot)
	claimed := make([]bool, len(occupied))
	var sc slotScratch
	before := met.positions.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(claimed)
		s.decodePositions(capt, dci.NonFallback, payloadBits, occupied, claimed, &sc)
	}
	b.ReportMetric(float64(met.positions.Value()-before)/float64(b.N), "positions/op")
}
