package history

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/mcs"
	"nrscope/internal/obs"
	"nrscope/internal/telemetry"
)

// msRec builds a data record stamped at tms milliseconds.
func msRec(tms float64, rnti uint16, downlink bool, tbs, mcs int, retx bool) telemetry.Record {
	return telemetry.Record{
		TMs: tms, RNTI: rnti, Downlink: downlink, TBS: tbs,
		MCS: mcs, NumPRB: 4, IsRetx: retx,
	}
}

func newTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	st := New(cfg)
	if err := st.AddCell(1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBinAggregation(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 16})
	st.Ingest(1, msRec(10, 0x100, true, 1000, 5, false))
	st.Ingest(1, msRec(50, 0x100, true, 2000, 9, false))
	st.Ingest(1, msRec(120, 0x100, true, 4000, 7, false))
	st.Ingest(1, msRec(130, 0x100, true, 4000, 7, true)) // retx: no bits
	st.Ingest(1, msRec(140, 0x100, false, 600, 3, false))

	bins, _ := st.Query(1, 0x100, 0, 0, 1)
	if len(bins) != 2 {
		t.Fatalf("bins = %d, want 2 (%+v)", len(bins), bins)
	}
	b0 := bins[0]
	if b0.StartMs != 0 || b0.DLBits != 3000 || b0.Grants != 2 || b0.Retx != 0 {
		t.Errorf("bin0 = %+v", b0)
	}
	if b0.MCSMin != 5 || b0.MCSMax != 9 || b0.MCSAvg != 7 {
		t.Errorf("bin0 MCS = %d/%.1f/%d", b0.MCSMin, b0.MCSAvg, b0.MCSMax)
	}
	if want := 3000 / 0.1; b0.DLBps != want {
		t.Errorf("bin0 DLBps = %v, want %v", b0.DLBps, want)
	}
	b1 := bins[1]
	if b1.StartMs != 100 || b1.DLBits != 4000 || b1.ULBits != 600 || b1.Grants != 3 || b1.Retx != 1 {
		t.Errorf("bin1 = %+v", b1)
	}
	if want := 1.0 / 3; b1.RetxRate != want {
		t.Errorf("bin1 retx rate = %v, want %v", b1.RetxRate, want)
	}
}

func TestSlotTimeFallback(t *testing.T) {
	// Records without a t_ms stamp derive bin time from SlotIdx and
	// the cell's registered TTI (1 ms in this store).
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 16})
	st.Ingest(1, telemetry.Record{SlotIdx: 250, RNTI: 0x200, Downlink: true, TBS: 500})
	bins, _ := st.Query(1, 0x200, 0, 0, 1)
	if len(bins) != 1 || bins[0].StartMs != 200 {
		t.Fatalf("bins = %+v, want one bin at 200ms", bins)
	}
}

func TestQueryRangeAndDownsample(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 16})
	for i := 0; i < 6; i++ {
		st.Ingest(1, msRec(float64(i)*100+10, 0x1, true, 100, 4, false))
	}
	// Range query: [200, 400) covers bins 2 and 3.
	bins, _ := st.Query(1, 0x1, 200, 400, 1)
	if len(bins) != 2 || bins[0].StartMs != 200 || bins[1].StartMs != 300 {
		t.Fatalf("range query = %+v", bins)
	}
	// Downsample by 3: 6 bins -> 2 samples of 300 ms each.
	ds, _ := st.Query(1, 0x1, 0, 0, 3)
	if len(ds) != 2 {
		t.Fatalf("downsample = %+v", ds)
	}
	if ds[0].SpanMs != 300 || ds[0].DLBits != 300 || ds[0].Grants != 3 {
		t.Errorf("downsampled bin0 = %+v", ds[0])
	}
	if want := 300 / 0.3; ds[0].DLBps != want {
		t.Errorf("downsampled DLBps = %v, want %v", ds[0].DLBps, want)
	}
}

func TestLateRecordWithinAndBeyondRing(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 4})
	before := obs.Snapshot()
	st.Ingest(1, msRec(810, 0x1, true, 100, 4, false))  // bin 8
	st.Ingest(1, msRec(1000, 0x1, true, 100, 4, false)) // bin 10: ring now holds 8..10
	st.Ingest(1, msRec(910, 0x1, true, 100, 4, false))  // bin 9: late but retained
	st.Ingest(1, msRec(100, 0x1, true, 100, 4, false))  // bin 1: older than the ring
	d := obs.Delta(before, obs.Snapshot())
	// The too-old record misses both the cell and the UE series.
	if d["nrscope_history_late_total"] != 2 {
		t.Errorf("late = %v, want 2", d["nrscope_history_late_total"])
	}
	bins, _ := st.Query(1, 0x1, 0, 0, 1)
	var total int64
	for _, b := range bins {
		total += b.DLBits
	}
	if total != 300 {
		t.Errorf("retained DL bits = %d, want 300", total)
	}
}

func TestCommonRecordsStayOffUESeries(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 8})
	rec := msRec(10, 0xFFFF, true, 100, 4, false)
	rec.Common = true
	st.Ingest(1, rec)
	if st.TrackedUEs() != 0 {
		t.Error("common record created a UE series")
	}
	cell, _ := st.CellQuery(1, 0, 0, 1)
	if len(cell) != 1 || cell[0].Grants != 1 {
		t.Errorf("cell series = %+v, want the common grant", cell)
	}
}

// TestMaxUEsBounded is the acceptance-criteria memory bound: 50k
// distinct RNTIs through a 1000-UE store never exceed the cap.
func TestMaxUEsBounded(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 4, MaxUEs: 1000})
	before := obs.Snapshot()
	for i := 0; i < 50000; i++ {
		st.Ingest(1, msRec(float64(i)*0.1, uint16(i), true, 100, 4, false))
		if n := len(st.ues); n > 1000 {
			t.Fatalf("tracked UEs %d exceeded cap after %d ingests", n, i+1)
		}
		if st.lru.Len() != len(st.ues) {
			t.Fatalf("LRU list %d out of sync with map %d", st.lru.Len(), len(st.ues))
		}
	}
	if st.TrackedUEs() != 1000 {
		t.Errorf("tracked = %d, want 1000", st.TrackedUEs())
	}
	d := obs.Delta(before, obs.Snapshot())
	if d["nrscope_history_ues_evicted_total"] != 49000 {
		t.Errorf("evicted = %v, want 49000", d["nrscope_history_ues_evicted_total"])
	}
	// LRU: the survivors are the most recently seen RNTIs.
	if bins, _ := st.Query(1, uint16(49999), 0, 0, 1); bins == nil {
		t.Error("most recent UE was evicted")
	}
	if bins, _ := st.Query(1, uint16(0), 0, 0, 1); bins != nil {
		t.Error("oldest UE survived past the cap")
	}
}

// CheckUEList gives the package's external tests the dense-list
// invariant: every series of the map sits in ueList exactly once, at the
// position it records, and ueList holds nothing else.
func CheckUEList(st *Store) error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if len(st.ueList) != len(st.ues) {
		return fmt.Errorf("ueList holds %d series, the map %d", len(st.ueList), len(st.ues))
	}
	for i, u := range st.ueList {
		if st.ues[u.key] != u {
			return fmt.Errorf("ueList[%d] (cell %d rnti 0x%x) is not the map's series", i, u.key.cell, u.key.rnti)
		}
		if u.pos != i {
			return fmt.Errorf("ueList[%d] (cell %d rnti 0x%x) records position %d", i, u.key.cell, u.key.rnti, u.pos)
		}
	}
	return nil
}

// TestTrackedGaugeSumsStores: with two stores in the process, the
// tracked-UE gauge reads their sum through adds, LRU evictions and idle
// evictions, not the count of whichever store changed last.
func TestTrackedGaugeSumsStores(t *testing.T) {
	base := met.tracked.Value()
	a := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 4, MaxUEs: 3})
	b := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 4, MaxUEs: 100, IdleHorizon: time.Second})
	check := func(when string) {
		t.Helper()
		if got, want := met.tracked.Value()-base, int64(a.TrackedUEs()+b.TrackedUEs()); got != want {
			t.Fatalf("%s: gauge moved by %d, the stores track %d", when, got, want)
		}
	}
	for i := 0; i < 5; i++ {
		b.Ingest(1, msRec(float64(i)*10, uint16(0x200+i), true, 100, 4, false))
		a.Ingest(1, msRec(float64(i)*10, uint16(0x100+i), true, 100, 4, false))
		check(fmt.Sprintf("after add %d", i))
	}
	if a.TrackedUEs() != 3 || b.TrackedUEs() != 5 {
		t.Fatalf("tracked %d and %d, want 3 (LRU cap) and 5", a.TrackedUEs(), b.TrackedUEs())
	}
	b.Ingest(1, msRec(5000, 0x2FF, true, 100, 4, false)) // the other five idle past the horizon
	if b.TrackedUEs() != 1 {
		t.Fatalf("b tracks %d after the idle horizon, want 1", b.TrackedUEs())
	}
	check("after idle eviction")
}

func TestLRUTouchOnActivity(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 4, MaxUEs: 2})
	st.Ingest(1, msRec(10, 0xA, true, 100, 4, false))
	st.Ingest(1, msRec(20, 0xB, true, 100, 4, false))
	st.Ingest(1, msRec(30, 0xA, true, 100, 4, false)) // touch A: B becomes LRU
	st.Ingest(1, msRec(40, 0xC, true, 100, 4, false)) // evicts B, not A
	if bins, _ := st.Query(1, 0xA, 0, 0, 1); bins == nil {
		t.Error("recently touched UE evicted")
	}
	if bins, _ := st.Query(1, 0xB, 0, 0, 1); bins != nil {
		t.Error("least-recently-seen UE survived")
	}
}

func TestIdleHorizonEviction(t *testing.T) {
	st := newTestStore(t, Config{
		BinWidth: 100 * time.Millisecond, Depth: 4, MaxUEs: 100,
		IdleHorizon: time.Second,
	})
	st.Ingest(1, msRec(0, 0xA, true, 100, 4, false))
	st.Ingest(1, msRec(500, 0xB, true, 100, 4, false))
	st.Ingest(1, msRec(5000, 0xC, true, 100, 4, false)) // A and B now idle > 1 s
	if got := st.TrackedUEs(); got != 1 {
		t.Errorf("tracked = %d, want 1 after idle eviction", got)
	}
	if bins, _ := st.Query(1, 0xC, 0, 0, 1); bins == nil {
		t.Error("active UE evicted")
	}
}

func TestTopK(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 16})
	st.Ingest(1, msRec(10, 0xA, true, 1000, 4, false))
	st.Ingest(1, msRec(20, 0xB, true, 5000, 4, false))
	st.Ingest(1, msRec(30, 0xC, true, 3000, 4, false))
	st.Ingest(1, msRec(40, 0xC, true, 100, 4, true)) // retx for C
	ranks, err := st.TopK("dl_bits", time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 2 || ranks[0].RNTI != 0xB || ranks[1].RNTI != 0xC {
		t.Fatalf("TopK(dl_bits) = %+v", ranks)
	}
	if ranks[0].Value != 5000 {
		t.Errorf("top value = %v, want 5000", ranks[0].Value)
	}
	retx, err := st.TopK("retx", time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(retx) != 1 || retx[0].RNTI != 0xC || retx[0].Value != 1 {
		t.Errorf("TopK(retx) = %+v", retx)
	}
	if _, err := st.TopK("nope", time.Second, 1); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestSpareIngest(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 8})
	st.Ingest(1, msRec(10, 0xA, true, 1000, 4, false))
	e, _ := mcs.TableQAM64.Lookup(10)
	sp := new(telemetry.SpareCapacity)
	*sp = telemetry.ComputeSpare(5000, 2000, []telemetry.SpareUE{
		{RNTI: 0xA, UELinkState: telemetry.UELinkState{Entry: e, Layers: 2}},
		{RNTI: 0xB, UELinkState: telemetry.UELinkState{Entry: e, Layers: 1}}, // untracked
	})
	st.IngestSpare(1, 50, sp) // slot 50 at 1 ms TTI -> bin 0
	bins, _ := st.Query(1, 0xA, 0, 0, 1)
	if want := sp.Bits(0); len(bins) != 1 || want <= 0 || bins[0].SpareBits != want {
		t.Errorf("UE spare bins = %+v, want SpareBits %v", bins, want)
	}
	if st.TrackedUEs() != 1 {
		t.Error("spare data created a UE series")
	}
	cell, _ := st.CellQuery(1, 0, 0, 1)
	if len(cell) != 1 || cell[0].UsedREs != 2000 || cell[0].TotalREs != 5000 {
		t.Errorf("cell spare accounting = %+v", cell)
	}
}

func TestSubscribeToBusLossless(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 64})
	b := bus.New()
	if _, err := st.SubscribeTo(b, 1); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := b.Publish(msRec(float64(i), uint16(0x10+i%3), true, 100, 4, false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil { // Block policy: drains in full
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if len(snap.Cells) != 1 || snap.Cells[0].Grants != n {
		t.Fatalf("snapshot = %+v, want %d grants", snap, n)
	}
	if snap.TrackedUEs != 3 {
		t.Errorf("tracked = %d, want 3", snap.TrackedUEs)
	}
}

func TestUnknownCellDropped(t *testing.T) {
	st := newTestStore(t, Config{})
	before := obs.Snapshot()
	st.Ingest(7, msRec(10, 0xA, true, 100, 4, false))
	d := obs.Delta(before, obs.Snapshot())
	if d["nrscope_history_dropped_total"] != 1 {
		t.Errorf("dropped = %v, want 1", d["nrscope_history_dropped_total"])
	}
	if st.TrackedUEs() != 0 {
		t.Error("unknown cell created a UE series")
	}
}

// TestIngestAllocs enforces the allocation-lean acceptance bound on
// the steady-state ingest path (already-tracked UE): <= 2 allocs/record.
func TestIngestAllocs(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 64, MaxUEs: 256})
	for i := 0; i < 128; i++ {
		st.Ingest(1, msRec(float64(i), uint16(i), true, 100, 4, false))
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		st.Ingest(1, msRec(130+float64(i)*0.05, uint16(i%128), true, 100, 4, false))
		i++
	})
	if avg > 2 {
		t.Errorf("ingest allocs/record = %.2f, want <= 2", avg)
	}
}

func TestGapLargerThanRingResets(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 4})
	st.Ingest(1, msRec(10, 0xA, true, 1000, 4, false))
	// Jump far beyond the ring: old bins must vanish, not loop O(gap).
	st.Ingest(1, msRec(1e9, 0xA, true, 2000, 4, false))
	bins, _ := st.Query(1, 0xA, 0, 0, 1)
	var total int64
	for _, b := range bins {
		total += b.DLBits
	}
	if total != 2000 {
		t.Errorf("retained DL bits after jump = %d, want 2000", total)
	}
}

// TestQueryTooWide: a query materializing more samples than
// MaxQuerySamples must fail with a TooWideError instead of allocating
// proportionally to the span (with a lake attached the span is
// unbounded — days of 100 ms bins is an OOM vector, not a slow query).
func TestQueryTooWide(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 64, MaxQuerySamples: 10})
	for i := 0; i < 50; i++ {
		st.Ingest(1, msRec(float64(i)*100+10, 0x1, true, 100, 4, false))
	}
	_, err := st.Query(1, 0x1, 0, 0, 1) // 50 bins > cap 10
	var twe *TooWideError
	if !errors.As(err, &twe) {
		t.Fatalf("over-wide query err = %v, want *TooWideError", err)
	}
	if twe.Samples != 50 || twe.Cap != 10 {
		t.Errorf("TooWideError = %+v, want samples 50 cap 10", twe)
	}
	// Raising the downsample factor brings the request under the cap...
	bins, err := st.Query(1, 0x1, 0, 0, 5)
	if err != nil || len(bins) != 10 {
		t.Fatalf("downsampled query = %d bins, err %v; want 10, nil", len(bins), err)
	}
	// ...and so does narrowing the range.
	bins, err = st.Query(1, 0x1, 0, 1000, 1)
	if err != nil || len(bins) != 10 {
		t.Fatalf("narrowed query = %d bins, err %v; want 10, nil", len(bins), err)
	}
	if _, err := st.CellQuery(1, 0, 0, 1); !errors.As(err, &twe) {
		t.Errorf("over-wide cell query err = %v, want *TooWideError", err)
	}
}
