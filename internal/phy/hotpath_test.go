package phy

import (
	"testing"

	"nrscope/internal/raceflag"
)

func TestALIndex(t *testing.T) {
	for i, al := range AggregationLevels {
		if got := ALIndex(al); got != i {
			t.Errorf("ALIndex(%d) = %d, want %d", al, got, i)
		}
	}
	for _, bad := range []int{0, 3, 5, 32, -1} {
		if got := ALIndex(bad); got != -1 {
			t.Errorf("ALIndex(%d) = %d, want -1", bad, got)
		}
	}
}

func TestSameRegion(t *testing.T) {
	base := CORESET{ID: 0, StartPRB: 0, NumPRB: 48, Duration: 1, StartSym: 0}
	sameButID := base
	sameButID.ID = 1
	if !base.SameRegion(sameButID) {
		t.Error("same geometry, different ID: want SameRegion true")
	}
	for _, mutate := range []func(*CORESET){
		func(c *CORESET) { c.StartPRB = 6 },
		func(c *CORESET) { c.NumPRB = 24 },
		func(c *CORESET) { c.Duration = 2 },
		func(c *CORESET) { c.StartSym = 2 },
	} {
		other := base
		mutate(&other)
		if base.SameRegion(other) {
			t.Errorf("geometry %+v vs %+v: want SameRegion false", base, other)
		}
	}
}

func TestAppendSlotCandidatesMatchesSlotCandidates(t *testing.T) {
	cs := CORESET{ID: 1, StartPRB: 0, NumPRB: 48, Duration: 1, StartSym: 0}
	ss := SearchSpace{ID: 1, Type: UESearchSpace, Candidates: DefaultUECandidates()}
	var buf []Candidate
	for slot := 0; slot < 20; slot++ {
		for _, rnti := range []uint16{0x4601, 0x4602, 0xFFF0} {
			want := AppendSlotCandidates(nil, ss, cs, rnti, slot)
			buf = AppendSlotCandidates(buf[:0], ss, cs, rnti, slot)
			if len(buf) != len(want) {
				t.Fatalf("slot %d rnti %#x: %d candidates vs %d", slot, rnti, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("slot %d rnti %#x: candidate %d differs", slot, rnti, i)
				}
			}
		}
	}
	// Warm buffer: enumeration must not allocate.
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendSlotCandidates(buf[:0], ss, cs, 0x4601, 7)
	}); n != 0 {
		t.Errorf("AppendSlotCandidates: %.1f allocs/op, want 0", n)
	}
}

// BenchmarkAppendSlotCandidates is one UE's whole search-space hash: the
// 19 candidates of the default UE search space in a 48-CCE CORESET, at
// slot 19, into a warm buffer.
func BenchmarkAppendSlotCandidates(b *testing.B) {
	cs := CORESET{ID: 1, NumPRB: 144, Duration: 2}
	ss := SearchSpace{ID: 1, Type: UESearchSpace, Candidates: DefaultUECandidates()}
	buf := AppendSlotCandidates(nil, ss, cs, 0x4601, 19)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendSlotCandidates(buf[:0], ss, cs, 0x4601, 19)
	}
}
