package fusion

import (
	"runtime"
	"testing"
	"time"

	"nrscope/internal/history"
	"nrscope/internal/phy"
	"nrscope/internal/telemetry"
)

func rec(slot int, rnti uint16, tbs int) telemetry.Record {
	return telemetry.Record{SlotIdx: slot, RNTI: rnti, Downlink: true, TBS: tbs}
}

// newAgg is an aggregator over its own 10 ms × 1024-bin store: ~10 s
// of correlation window at a 10 ms activity bin.
func newAgg() *Aggregator {
	return NewWithStore(history.New(history.Config{BinWidth: 10 * time.Millisecond, Depth: 1024}))
}

func twoCells(t *testing.T) *Aggregator {
	t.Helper()
	a := newAgg()
	if err := a.AddCell(1, phy.Mu1); err != nil {
		t.Fatal(err)
	}
	if err := a.AddCell(2, phy.Mu0); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAddCellValidation(t *testing.T) {
	a := newAgg()
	if err := a.AddCell(1, phy.Mu1); err != nil {
		t.Fatal(err)
	}
	if err := a.AddCell(1, phy.Mu1); err == nil {
		t.Error("duplicate cell accepted")
	}
	if err := a.AddCell(2, phy.Numerology(9)); err == nil {
		t.Error("invalid numerology accepted")
	}
	if err := a.Ingest(99, rec(0, 1, 100)); err == nil {
		t.Error("unknown cell ingested")
	}
}

// TestAddCellSharedStore: handing the aggregator a store that already
// has a cell registered (a shard partition's wiring) must not fail
// AddCell.
func TestAddCellSharedStore(t *testing.T) {
	st := history.New(history.Config{BinWidth: 10 * time.Millisecond, Depth: 64})
	if err := st.AddCell(1, phy.Mu1.SlotDuration()); err != nil {
		t.Fatal(err)
	}
	a := NewWithStore(st)
	if a.store != st {
		t.Fatal("shared store not adopted")
	}
	if err := a.AddCell(1, phy.Mu1); err != nil {
		t.Fatalf("AddCell on a shared store: %v", err)
	}
	if err := a.AddCell(2, phy.Mu0); err != nil {
		t.Fatalf("AddCell of a store-unknown cell: %v", err)
	}
	_ = a.Ingest(1, rec(100, 0x11, 1000))
	if got := st.TrackedUEs(); got != 1 {
		t.Errorf("shared store tracks %d UEs after ingest, want 1", got)
	}
}

func TestMergedStreamTimeOrdered(t *testing.T) {
	a := twoCells(t)
	// Cell 1 runs 0.5 ms slots, cell 2 runs 1 ms slots: slot indices do
	// not align, absolute bin times must.
	_ = a.Ingest(1, rec(100, 0x11, 1000)) // t = 50 ms -> bin 5
	_ = a.Ingest(2, rec(40, 0x22, 2000))  // t = 40 ms -> bin 4
	_ = a.Ingest(1, rec(60, 0x11, 4000))  // t = 30 ms -> bin 3
	m := a.Merged()
	if len(m) != 3 {
		t.Fatalf("merged %d bins (%+v), want 3", len(m), m)
	}
	for i := 1; i < len(m); i++ {
		if m[i].At() < m[i-1].At() {
			t.Fatalf("merged view out of order: %v after %v", m[i].At(), m[i-1].At())
		}
	}
	if m[0].Cell != 1 || m[0].At() != 30*time.Millisecond || m[0].DLBits != 4000 {
		t.Errorf("first merged bin wrong: %+v", m[0])
	}
	if m[1].Cell != 2 || m[1].DLBits != 2000 {
		t.Errorf("second merged bin wrong: %+v", m[1])
	}
}

// TestMergedViewBounded: the merged view is reconstructed from the
// store's fixed-depth rings, so it cannot outgrow depth bins per cell no
// matter how many records were ingested.
func TestMergedViewBounded(t *testing.T) {
	st := history.New(history.Config{BinWidth: 10 * time.Millisecond, Depth: 32})
	a := NewWithStore(st)
	if err := a.AddCell(1, phy.Mu0); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10000; s++ { // 10 s of 1 ms slots, every bin active
		_ = a.Ingest(1, rec(s, 0x11, 100))
	}
	if m := a.Merged(); len(m) > 32 {
		t.Errorf("merged view holds %d bins, want <= store depth 32", len(m))
	}
}

func TestHandoverDetected(t *testing.T) {
	a := twoCells(t)
	// A busy session on cell 1 (slots 0..400 at 0.5 ms = 0..200 ms).
	for s := 0; s <= 400; s += 4 {
		_ = a.Ingest(1, rec(s, 0x4601, 8000))
	}
	// Silence, then a new C-RNTI on cell 2 at 280 ms (slot 280 at 1 ms)
	// with a similar rate.
	for s := 280; s <= 600; s += 8 {
		_ = a.Ingest(2, rec(s, 0x7777, 16000))
	}
	hos := a.Handovers()
	if len(hos) != 1 {
		t.Fatalf("detected %d handovers, want 1", len(hos))
	}
	h := hos[0]
	if h.FromCell != 1 || h.ToCell != 2 || h.FromRNTI != 0x4601 || h.ToRNTI != 0x7777 {
		t.Errorf("handover endpoints wrong: %+v", h)
	}
	if h.Gap != 80*time.Millisecond {
		t.Errorf("gap = %v, want 80ms", h.Gap)
	}
	if h.Confidence < 0.5 {
		t.Errorf("confidence %.2f too low for a clean handover", h.Confidence)
	}
	if h.FromRate <= 0 || h.ToRate <= 0 {
		t.Errorf("session rates not reported: from %.0f to %.0f", h.FromRate, h.ToRate)
	}
}

func TestNoHandoverOutsideWindow(t *testing.T) {
	a := twoCells(t)
	for s := 0; s <= 400; s += 4 {
		_ = a.Ingest(1, rec(s, 0x4601, 8000))
	}
	// Arrival 2 s later: beyond the 500 ms window.
	_ = a.Ingest(2, rec(2200, 0x7777, 8000))
	if hos := a.Handovers(); len(hos) != 0 {
		t.Errorf("spurious handover: %+v", hos)
	}
}

func TestNoHandoverForTinySessions(t *testing.T) {
	a := twoCells(t)
	_ = a.Ingest(1, rec(100, 0x4601, 100)) // 100 bits: below minSessionBits
	_ = a.Ingest(2, rec(60, 0x7777, 8000))
	if hos := a.Handovers(); len(hos) != 0 {
		t.Errorf("tiny session matched: %+v", hos)
	}
}

// TestHandoverSurvivesRNTIReuse: after a handover is detected, the
// target C-RNTI ages out and is reused by an unrelated (much faster)
// session. The retained handover must keep the original arrival's
// fingerprint — reuse used to rescore it with the new UE's bitrate.
func TestHandoverSurvivesRNTIReuse(t *testing.T) {
	a := twoCells(t)
	a.IdleHorizon = time.Second
	for s := 0; s <= 400; s += 4 {
		_ = a.Ingest(1, rec(s, 0x4601, 8000))
	}
	for s := 280; s <= 600; s += 8 {
		_ = a.Ingest(2, rec(s, 0x7777, 16000))
	}
	want := a.Handovers()
	if len(want) != 1 {
		t.Fatalf("detected %d handovers, want 1", len(want))
	}

	// Busy-work on cell 2 far past the idle horizon (>512 records to
	// trigger the sweep), evicting 0x7777's session accounting...
	for s := 0; s < 600; s++ {
		_ = a.Ingest(2, rec(5000+s, 0x1111, 1000))
	}
	if _, reused := a.cells[2].ues[0x7777]; reused {
		t.Fatal("stale 0x7777 session not evicted; sweep broken")
	}
	// ...then 0x7777 is reused by a session 100x the original's rate.
	for s := 5600; s <= 5700; s += 2 {
		_ = a.Ingest(2, rec(s, 0x7777, 200000))
	}

	got := a.Handovers()
	if len(got) < 1 {
		t.Fatal("handover lost after reuse")
	}
	g := got[0]
	if g.Confidence != want[0].Confidence {
		t.Errorf("RNTI reuse rescored the handover: conf %.4f -> %.4f", want[0].Confidence, g.Confidence)
	}
	if g.ToRate != want[0].ToRate {
		t.Errorf("RNTI reuse swapped the arrival fingerprint: rate %.0f -> %.0f", want[0].ToRate, g.ToRate)
	}
}

func TestCommonRecordsDoNotCreateUEs(t *testing.T) {
	a := twoCells(t)
	common := rec(10, 0xFFFF, 1000)
	common.Common = true
	_ = a.Ingest(1, common)
	total, _, err := a.ActiveUEs(1, time.Second, time.Second)
	if err != nil || total != 0 {
		t.Errorf("common record created a UE: total=%d err=%v", total, err)
	}
}

func TestCellLoadAndActiveUEs(t *testing.T) {
	a := twoCells(t)
	// 1 Mbit over 100 ms on cell 1.
	for s := 0; s <= 200; s += 2 {
		_ = a.Ingest(1, rec(s, 0x4601, 10000))
	}
	load, err := a.CellLoad(1)
	if err != nil {
		t.Fatal(err)
	}
	if load < 5e6 || load > 15e6 {
		t.Errorf("cell load %.0f bits/s implausible", load)
	}
	total, recent, err := a.ActiveUEs(1, 100*time.Millisecond, 20*time.Millisecond)
	if err != nil || total != 1 || recent != 1 {
		t.Errorf("ActiveUEs = (%d,%d,%v)", total, recent, err)
	}
	if _, err := a.CellLoad(42); err == nil {
		t.Error("unknown cell load accepted")
	}
}

// TestCellLoadSurvivesEviction: idle eviction of every UE session used
// to collapse the observation span to zero (the load was computed from
// the retained UEs' lastSeen), reporting zero load on a busy cell. The
// span now lives on the cell itself.
func TestCellLoadSurvivesEviction(t *testing.T) {
	a := newAgg()
	if err := a.AddCell(1, phy.Mu0); err != nil { // 1 ms slots
		t.Fatal(err)
	}
	a.IdleHorizon = time.Second
	// A busy UE: 600 slots x 10000 bits over 0..599 ms.
	for s := 0; s < 600; s++ {
		_ = a.Ingest(1, rec(s, 0x4601, 10000))
	}
	want, err := a.CellLoad(1)
	if err != nil || want <= 0 {
		t.Fatalf("load before eviction = (%v, %v)", want, err)
	}
	// Broadcast-only traffic far past the horizon: triggers the idle
	// sweep (>512 records) without creating any UE session.
	for s := 0; s < 600; s++ {
		common := rec(5000+s, 0xFFFF, 0)
		common.Common = true
		_ = a.Ingest(1, common)
	}
	if n := len(a.cells[1].ues); n != 0 {
		t.Fatalf("ue map holds %d sessions, want 0 after sweep", n)
	}
	got, err := a.CellLoad(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("eviction changed CellLoad: %.0f -> %.0f", want, got)
	}
}

func TestCarrierAggregationDetected(t *testing.T) {
	a := twoCells(t)
	// Correlated bursts: the same device active on both carriers in the
	// same 10 ms windows (cell 1 at 0.5 ms TTI, cell 2 at 1 ms TTI).
	for burst := 0; burst < 20; burst++ {
		base1 := burst * 100 // cell 1 slots: 100 slots = 50 ms apart
		base2 := burst * 50  // cell 2 slots: same wall-clock spacing
		for k := 0; k < 10; k += 2 {
			_ = a.Ingest(1, rec(base1+k, 0x4601, 4000))
			_ = a.Ingest(2, rec(base2+k/2, 0x7001, 4000))
		}
	}
	// An uncorrelated bystander on cell 2, active in the gaps.
	for burst := 0; burst < 20; burst++ {
		_ = a.Ingest(2, rec(burst*50+30, 0x7002, 4000))
	}
	cas := a.CarrierAggregation(0.7)
	if len(cas) != 1 {
		t.Fatalf("CA candidates = %d (%v), want 1", len(cas), cas)
	}
	got := cas[0]
	pair := map[uint16]bool{got.RNTIA: true, got.RNTIB: true}
	if !pair[0x4601] || !pair[0x7001] {
		t.Errorf("wrong CA pair: %v", got)
	}
	if got.Overlap < 0.9 {
		t.Errorf("overlap %.2f for fully correlated sessions", got.Overlap)
	}
}

func TestCarrierAggregationIgnoresTinySessions(t *testing.T) {
	a := twoCells(t)
	_ = a.Ingest(1, rec(0, 0x4601, 4000))
	_ = a.Ingest(2, rec(0, 0x7001, 4000))
	if cas := a.CarrierAggregation(0.5); len(cas) != 0 {
		t.Errorf("tiny sessions matched: %v", cas)
	}
}

func TestHandoverStringer(t *testing.T) {
	h := Handover{FromCell: 1, ToCell: 2, FromRNTI: 0x4601, ToRNTI: 0x7777, At: time.Second, Gap: 80 * time.Millisecond, Confidence: 0.9}
	s := h.String()
	if len(s) == 0 || s[:8] != "handover" {
		t.Errorf("stringer output %q", s)
	}
}

// TestUEMapBoundedUnderChurn: a long-lived scope cycling through many
// distinct C-RNTIs must not grow the per-cell activity map without
// bound — sessions idle past the horizon are swept out.
func TestUEMapBoundedUnderChurn(t *testing.T) {
	a := newAgg()
	if err := a.AddCell(1, phy.Mu0); err != nil { // 1 ms slots
		t.Fatal(err)
	}
	a.IdleHorizon = time.Second
	// 20k distinct RNTIs, each active for one slot, one every 2 ms:
	// only ~500 can fall within any 1 s horizon.
	const churn = 20000
	for i := 0; i < churn; i++ {
		if err := a.Ingest(1, rec(i*2, uint16(i%60000), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(a.cells[1].ues); n > 1200 {
		t.Errorf("ue map holds %d sessions after churn, want <= 1200 (horizon %v)", n, a.IdleHorizon)
	}
	total, _, err := a.ActiveUEs(1, time.Duration(churn*2)*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if total > 1200 {
		t.Errorf("ActiveUEs total = %d after churn, want <= 1200", total)
	}
}

// TestIdleHorizonDisabled: IdleHorizon <= 0 keeps every session (the
// pre-eviction behaviour, for offline multi-cell analyses).
func TestIdleHorizonDisabled(t *testing.T) {
	a := newAgg()
	if err := a.AddCell(1, phy.Mu0); err != nil {
		t.Fatal(err)
	}
	a.IdleHorizon = 0
	for i := 0; i < 2048; i++ {
		if err := a.Ingest(1, rec(i*2, uint16(i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(a.cells[1].ues); n != 2048 {
		t.Errorf("ue map holds %d sessions, want all 2048 with eviction off", n)
	}
}

// TestHandoverRingBounded: handover candidates are a bounded ring — a
// pathological ping-pong workload cannot grow the slice without limit,
// and the newest candidates win.
func TestHandoverRingBounded(t *testing.T) {
	a := twoCells(t)
	a.maxHandovers = 8
	a.minSessionBits = 1000
	cell, other := uint16(1), uint16(2)
	slotMS := map[uint16]int{1: 2, 2: 1} // slots per ms
	t0 := 0
	for i := 0; i < 100; i++ {
		// A short busy session, then an "arrival" on the other cell
		// 100 ms later: every iteration detects one handover.
		rnti := uint16(0x1000 + i)
		for k := 0; k < 10; k++ {
			_ = a.Ingest(cell, rec((t0+k*10)*slotMS[cell], rnti, 2000))
		}
		t0 += 200
		cell, other = other, cell
	}
	if n := len(a.handovers); n > 8 {
		t.Fatalf("handover ring holds %d, want <= 8", n)
	}
	hos := a.Handovers()
	if len(hos) == 0 {
		t.Fatal("no handovers retained")
	}
	_ = other
}

// TestFusionSoakBoundedMemory is the long-run soak: two cells ingest
// more than 10x the history depth of records under full C-RNTI churn,
// and the aggregator's retained state — store series, session maps,
// handover ring, merged view — must stay flat. The heap is sampled
// after a warm-up and again at the end; any per-record or per-UE-bin
// leak at this volume would add megabytes.
func TestFusionSoakBoundedMemory(t *testing.T) {
	st := history.New(history.Config{
		BinWidth: 10 * time.Millisecond, Depth: 64, MaxUEs: 512,
	})
	a := NewWithStore(st)
	a.IdleHorizon = time.Second
	a.maxHandovers = 256
	if err := a.AddCell(1, phy.Mu1); err != nil {
		t.Fatal(err)
	}
	if err := a.AddCell(2, phy.Mu0); err != nil {
		t.Fatal(err)
	}

	const total = 200000 // >> 10 * depth(64) bins of records, per cell
	ingest := func(from, to int) {
		for i := from; i < to; i++ {
			rnti := uint16(1 + i%30000)
			// Both cells see churning one-shot sessions, 2 ms apart.
			_ = a.Ingest(1, rec(i*4, rnti, 4000))        // 0.5 ms slots
			_ = a.Ingest(2, rec(i*2, rnti^0x5555, 4000)) // 1 ms slots
		}
	}

	ingest(0, total/5) // warm-up: fills rings, maps, ring buffers
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	ingest(total/5, total)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 2<<20 {
		t.Errorf("heap grew %d bytes across the soak (want flat, < 2 MiB slack)", grew)
	}
	if n := st.TrackedUEs(); n > 512 {
		t.Errorf("store tracks %d UEs, want <= MaxUEs 512", n)
	}
	for _, cell := range []uint16{1, 2} {
		if n := len(a.cells[cell].ues); n > 2000 {
			t.Errorf("cell %d session map holds %d, want bounded by idle horizon", cell, n)
		}
	}
	if n := len(a.handovers); n > 256 {
		t.Errorf("handover ring holds %d, want <= 256", n)
	}
	if m := a.Merged(); len(m) > 2*64 {
		t.Errorf("merged view holds %d bins, want <= 2x depth", len(m))
	}
	// The aggregate still answers: load and activity survive the churn.
	for _, cell := range []uint16{1, 2} {
		load, err := a.CellLoad(cell)
		if err != nil || load <= 0 {
			t.Errorf("cell %d load after soak = (%v, %v)", cell, load, err)
		}
	}
}
