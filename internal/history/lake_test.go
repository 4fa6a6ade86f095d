package history

import (
	"testing"
	"time"
)

// fakeLake is an in-memory history.Lake used to test the store's spill
// hooks and RAM+disk query merge without touching disk.
type fakeLake struct {
	bins  map[fakeKey]map[int64]Bin
	anoms []Anomaly
}

type fakeKey struct {
	cell, rnti uint16
	cellSeries bool
}

// NewFakeLake gives the package's external tests a fakeLake.
func NewFakeLake() Lake { return newFakeLake() }

func newFakeLake() *fakeLake {
	return &fakeLake{bins: make(map[fakeKey]map[int64]Bin)}
}

func fkey(cell, rnti uint16, cellSeries bool) fakeKey {
	return fakeKey{cell, rnti, cellSeries}
}

func (f *fakeLake) SpillBin(cell, rnti uint16, cellSeries bool, binIdx int64, b *Bin) {
	k := fkey(cell, rnti, cellSeries)
	m := f.bins[k]
	if m == nil {
		m = make(map[int64]Bin)
		f.bins[k] = m
	}
	old := m[binIdx]
	old.Merge(*b)
	m[binIdx] = old
}

func (f *fakeLake) SpillAnomaly(a Anomaly) { f.anoms = append(f.anoms, a) }

func (f *fakeLake) ReadSeries(cell, rnti uint16, cellSeries bool, fromIdx, toIdx int64, visit func(binIdx int64, b Bin)) error {
	for idx, b := range f.bins[fkey(cell, rnti, cellSeries)] {
		if idx >= fromIdx && idx <= toIdx {
			visit(idx, b)
		}
	}
	return nil
}

func (f *fakeLake) SeriesBounds(cell, rnti uint16, cellSeries bool) (int64, int64, bool) {
	m := f.bins[fkey(cell, rnti, cellSeries)]
	if len(m) == 0 {
		return 0, 0, false
	}
	var minIdx, maxIdx int64
	first := true
	for idx := range m {
		if first || idx < minIdx {
			minIdx = idx
		}
		if first || idx > maxIdx {
			maxIdx = idx
		}
		first = false
	}
	return minIdx, maxIdx, true
}

// ScanUEs returns each in-window UE bin on its own, as if every bin
// were a block.
func (f *fakeLake) ScanUEs(fromIdx, toIdx int64, m Metric) []UEPartial {
	var out []UEPartial
	for k, bins := range f.bins {
		for idx, b := range bins {
			if !k.cellSeries && idx >= fromIdx && idx <= toIdx {
				out = append(out, UEPartial{Cell: k.cell, RNTI: k.rnti, Num: b.Sum(m.Num), Den: b.Sum(m.Den)})
			}
		}
	}
	return out
}

func (f *fakeLake) Anomalies() []Anomaly { return append([]Anomaly(nil), f.anoms...) }

// TestEvictSpillsToLake drives a tiny ring past its depth and checks
// every evicted bin lands in the lake exactly once, with RAM + disk
// together covering the full ingest span.
func TestEvictSpillsToLake(t *testing.T) {
	fl := newFakeLake()
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 4})
	st.AttachLake(fl)

	const bins = 12
	for i := 0; i < bins; i++ {
		st.Ingest(1, msRec(float64(i)*100+10, 0x1, true, 100, 4, false))
	}
	// Ring depth 4 holds bins 8..11; bins 0..7 must have spilled.
	ue := fl.bins[fkey(1, 0x1, false)]
	if len(ue) != bins-4 {
		t.Fatalf("spilled UE bins = %d, want %d (%v)", len(ue), bins-4, ue)
	}
	for idx := int64(0); idx < bins-4; idx++ {
		b, ok := ue[idx]
		if !ok || b.DLBits != 100 || b.Grants != 1 {
			t.Errorf("spilled bin %d = %+v, ok=%v", idx, b, ok)
		}
	}
	cell := fl.bins[fkey(1, 0, true)]
	if len(cell) != bins-4 {
		t.Errorf("spilled cell bins = %d, want %d", len(cell), bins-4)
	}

	// The merged query must cover the whole span, oldest bin first.
	got, _ := st.Query(1, 0x1, 0, 0, 1)
	if len(got) != bins {
		t.Fatalf("merged query bins = %d, want %d", len(got), bins)
	}
	for i, b := range got {
		if b.StartMs != float64(i)*100 || b.DLBits != 100 {
			t.Errorf("merged bin %d = %+v", i, b)
		}
	}
}

// TestGapEvictionSpills covers the advance gap-reset path: a silence
// gap wider than the ring must still spill everything retained.
func TestGapEvictionSpills(t *testing.T) {
	fl := newFakeLake()
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 4})
	st.AttachLake(fl)

	st.Ingest(1, msRec(10, 0x1, true, 100, 4, false))
	st.Ingest(1, msRec(110, 0x1, true, 200, 4, false))
	// Jump 50 bins ahead: the whole retained window is evicted at once.
	st.Ingest(1, msRec(5010, 0x1, true, 300, 4, false))

	ue := fl.bins[fkey(1, 0x1, false)]
	if len(ue) != 2 || ue[0].DLBits != 100 || ue[1].DLBits != 200 {
		t.Fatalf("gap spill = %v, want bins 0 and 1", ue)
	}
	got, _ := st.Query(1, 0x1, 0, 0, 1)
	if len(got) != 51 {
		t.Fatalf("merged span = %d bins, want 51 (0..50)", len(got))
	}
	if got[0].DLBits != 100 || got[1].DLBits != 200 || got[50].DLBits != 300 {
		t.Errorf("merged endpoints = %+v ... %+v", got[0], got[50])
	}
}

// TestUEEvictionSpillsWholeSeries covers the LRU eviction path: a UE
// pushed out by the MaxUEs cap must leave its whole retained series in
// the lake and stay rankable by TopK.
func TestUEEvictionSpillsWholeSeries(t *testing.T) {
	fl := newFakeLake()
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 8, MaxUEs: 2})
	st.AttachLake(fl)

	st.Ingest(1, msRec(10, 0xA, true, 1000, 4, false))
	st.Ingest(1, msRec(20, 0xB, true, 500, 4, false))
	st.Ingest(1, msRec(30, 0xC, true, 200, 4, false)) // evicts 0xA

	if st.TrackedUEs() != 2 {
		t.Fatalf("tracked = %d, want 2", st.TrackedUEs())
	}
	if got := fl.bins[fkey(1, 0xA, false)]; len(got) != 1 || got[0].DLBits != 1000 {
		t.Fatalf("evicted UE spill = %v", got)
	}
	// The evicted UE still answers queries from disk alone...
	bins, _ := st.Query(1, 0xA, 0, 0, 1)
	if len(bins) != 1 || bins[0].DLBits != 1000 {
		t.Fatalf("disk-only query = %+v", bins)
	}
	// ...and re-enters TopK from its spilled bins.
	ranks, err := st.TopK("dl_bits", time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 3 || ranks[0].RNTI != 0xA || ranks[0].Value != 1000 {
		t.Fatalf("TopK with disk-only UE = %+v", ranks)
	}
}

// TestTopKCountsRecreatedSeries: a UE evicted and re-created within one
// bin leaves its first partial bin on disk beside its live one. TopK
// must count both, as Query does.
func TestTopKCountsRecreatedSeries(t *testing.T) {
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 8, MaxUEs: 1})
	st.AttachLake(newFakeLake())
	st.Ingest(1, msRec(10, 0xA, true, 1000, 4, false))
	st.Ingest(1, msRec(20, 0xB, true, 500, 4, false)) // evicts A
	st.Ingest(1, msRec(30, 0xA, true, 700, 4, false)) // evicts B, re-creates A

	if bins, _ := st.Query(1, 0xA, 0, 0, 1); len(bins) != 1 || bins[0].DLBits != 1700 {
		t.Fatalf("Query(A) = %+v, want one bin of 1700 bits", bins)
	}
	ranks, err := st.TopK("dl_bits", time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []UERank{{Cell: 1, RNTI: 0xA, Value: 1700}, {Cell: 1, RNTI: 0xB, Value: 500}}
	if len(ranks) != len(want) || ranks[0] != want[0] || ranks[1] != want[1] {
		t.Fatalf("TopK = %+v, want %+v", ranks, want)
	}
}

// TestRAMDiskBoundaryEquality replays one record sequence into a store
// with a tiny ring backed by a lake and into an unbounded-RAM store,
// and requires QueryWindow spanning the RAM/disk boundary to agree
// bin-for-bin (the tentpole's transparency contract).
func TestRAMDiskBoundaryEquality(t *testing.T) {
	fl := newFakeLake()
	small := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 5})
	small.AttachLake(fl)
	big := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 4096})

	feed := func(st *Store) {
		for i := 0; i < 60; i++ {
			tms := float64(i)*50 + 3
			rnti := uint16(0x100 + i%3)
			st.Ingest(1, msRec(tms, rnti, i%2 == 0, 100*(i+1), 4+i%10, i%7 == 0))
		}
	}
	feed(small)
	feed(big)

	for _, rnti := range []uint16{0x100, 0x101, 0x102} {
		for _, ds := range []int{1, 3} {
			got, _ := small.QueryWindow(1, rnti, 10*time.Second, ds)
			want, _ := big.QueryWindow(1, rnti, 10*time.Second, ds)
			if len(got) != len(want) {
				t.Fatalf("rnti %#x ds %d: %d bins vs %d", rnti, ds, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("rnti %#x ds %d bin %d:\n lake: %+v\n  ram: %+v", rnti, ds, i, got[i], want[i])
				}
			}
		}
	}
	gotCell, _ := small.CellQuery(1, 0, 0, 1)
	wantCell, _ := big.CellQuery(1, 0, 0, 1)
	if len(gotCell) != len(wantCell) {
		t.Fatalf("cell bins %d vs %d", len(gotCell), len(wantCell))
	}
	for i := range gotCell {
		if gotCell[i] != wantCell[i] {
			t.Errorf("cell bin %d: lake %+v ram %+v", i, gotCell[i], wantCell[i])
		}
	}

	gotTop, _ := small.TopK("bits", 10*time.Second, 0)
	wantTop, _ := big.TopK("bits", 10*time.Second, 0)
	if len(gotTop) != len(wantTop) {
		t.Fatalf("TopK %v vs %v", gotTop, wantTop)
	}
	for i := range gotTop {
		if gotTop[i] != wantTop[i] {
			t.Errorf("TopK row %d: lake %+v ram %+v", i, gotTop[i], wantTop[i])
		}
	}
}

// TestAnomalySpill overflows the anomaly ring and checks Anomalies()
// returns the spilled prefix ahead of the retained tail.
func TestAnomalySpill(t *testing.T) {
	fl := newFakeLake()
	st := newTestStore(t, Config{BinWidth: 100 * time.Millisecond, Depth: 8, AnomalyDepth: 2})
	st.AttachLake(fl)

	for i := 0; i < 5; i++ {
		st.addAnomalyLocked(Anomaly{Cell: 1, RNTI: 0x1, Kind: KindRetxSpike, AtMs: float64(i)})
	}
	all := st.Anomalies()
	if len(all) != 5 {
		t.Fatalf("anomalies = %d, want 5", len(all))
	}
	for i, a := range all {
		if a.AtMs != float64(i) {
			t.Errorf("anomaly %d at %v, want %v (order lost)", i, a.AtMs, float64(i))
		}
	}
	if len(fl.anoms) != 3 {
		t.Errorf("spilled anomalies = %d, want 3", len(fl.anoms))
	}
}
