package history

import (
	"testing"
	"time"
)

// maskStore is a two-cell store at a 10 ms bin width, the fusion
// aggregator's correlation configuration.
func maskStore(t *testing.T, depth int) *Store {
	t.Helper()
	st := New(Config{BinWidth: 10 * time.Millisecond, Depth: depth})
	for cell := uint16(1); cell <= 2; cell++ {
		if err := st.AddCell(cell, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestActivityMask(t *testing.T) {
	st := maskStore(t, 32)
	// Active in bins 2, 3 and 7 (bin width 10 ms).
	for _, tms := range []float64{21, 25, 33, 71} {
		st.Ingest(1, msRec(tms, 0x10, true, 1000, 5, false))
	}
	m, ok := st.ActivityMask(1, 0x10)
	if !ok {
		t.Fatal("tracked UE has no mask")
	}
	if m.FirstIdx != 2 || m.BinMs != 10 {
		t.Errorf("mask FirstIdx=%d BinMs=%v", m.FirstIdx, m.BinMs)
	}
	if m.Active != 3 || len(m.Mask) != 6 {
		t.Errorf("mask active=%d len=%d, want 3 active over 6 bins", m.Active, len(m.Mask))
	}
	for i, want := range []bool{true, true, false, false, false, true} {
		if m.Mask[i] != want {
			t.Errorf("mask[%d] = %v, want %v", i, m.Mask[i], want)
		}
	}
	if _, ok := st.ActivityMask(1, 0xBEEF); ok {
		t.Error("unknown UE returned a mask")
	}
}

func TestMaskOverlapAlignsAcrossCells(t *testing.T) {
	st := maskStore(t, 64)
	// Cell 1 UE active in bins 0..9; cell 2 UE active in bins 5..14:
	// 5 shared bins over 10 active each -> overlap 0.5.
	for i := 0; i < 10; i++ {
		st.Ingest(1, msRec(float64(i*10)+1, 0x11, true, 1000, 5, false))
		st.Ingest(2, msRec(float64((i+5)*10)+1, 0x22, true, 1000, 5, false))
	}
	ov, ok := pairOverlap(st, 1, 0x11, 2, 0x22)
	if !ok {
		t.Fatal("tracked pair not correlated")
	}
	if ov != 0.5 {
		t.Errorf("overlap = %v, want 0.5", ov)
	}
	// Symmetric.
	rev, _ := pairOverlap(st, 2, 0x22, 1, 0x11)
	if rev != ov {
		t.Errorf("overlap not symmetric: %v vs %v", ov, rev)
	}
	if _, ok := pairOverlap(st, 1, 0x11, 2, 0xBEEF); ok {
		t.Error("unknown UE correlated")
	}
}

func TestMaskOverlapDisjointWindows(t *testing.T) {
	st := maskStore(t, 8)
	st.Ingest(1, msRec(5, 0x11, true, 1000, 5, false))
	// The cell-2 session starts far past cell 1's retained window.
	st.Ingest(2, msRec(10005, 0x22, true, 1000, 5, false))
	ov, ok := pairOverlap(st, 1, 0x11, 2, 0x22)
	if !ok || ov != 0 {
		t.Errorf("disjoint sessions overlap %v (ok=%v), want 0", ov, ok)
	}
}

func TestMaskBoundedByDepth(t *testing.T) {
	st := maskStore(t, 16)
	// 200 active bins: only the newest 16 are retained.
	for i := 0; i < 200; i++ {
		st.Ingest(1, msRec(float64(i*10)+1, 0x11, true, 1000, 5, false))
	}
	m, ok := st.ActivityMask(1, 0x11)
	if !ok {
		t.Fatal("no mask")
	}
	if len(m.Mask) != 16 || m.Active != 16 {
		t.Errorf("mask len=%d active=%d, want 16/16", len(m.Mask), m.Active)
	}
	if m.FirstIdx != 199-15 {
		t.Errorf("mask FirstIdx = %d, want %d", m.FirstIdx, 199-15)
	}
}

func TestHasCell(t *testing.T) {
	st := maskStore(t, 8)
	if !st.HasCell(1) || !st.HasCell(2) {
		t.Error("registered cells not reported")
	}
	if st.HasCell(42) {
		t.Error("unknown cell reported")
	}
	if st.Depth() != 8 {
		t.Errorf("Depth = %d", st.Depth())
	}
}

// pairOverlap correlates two sessions' retained activity through their
// activity masks; ok is false when either UE is not tracked.
func pairOverlap(st *Store, cellA, rntiA, cellB, rntiB uint16) (float64, bool) {
	a, okA := st.ActivityMask(cellA, rntiA)
	b, okB := st.ActivityMask(cellB, rntiB)
	if !okA || !okB {
		return 0, false
	}
	return a.Overlap(b), true
}
