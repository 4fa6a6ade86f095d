package mcs

import (
	"testing"
)

// checkMemo compares one memoised computation with Compute: the same
// result, and the same error text.
func checkMemo(t *testing.T, m *Memo, p TBSParams) {
	t.Helper()
	want, wantErr := Compute(p)
	got, err := m.Compute(p)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%+v: error %v, Compute %v", p, err, wantErr)
	}
	if got != want {
		t.Fatalf("%+v:\n memo    %+v\n Compute %+v", p, got, want)
	}
}

// TestMemoMatchesCompute sweeps both tables, I_MCS 0..31 (the indices
// past each table's end are errors), n_PRB 1..275, 1..14 symbols and
// 1..4 layers through one memo twice — the second pass mostly hits —
// and holds every answer to Compute.
func TestMemoMatchesCompute(t *testing.T) {
	var m Memo
	for pass := 0; pass < 2; pass++ {
		for _, table := range []Table{TableQAM64, TableQAM256} {
			for mcs := 0; mcs <= 31; mcs++ {
				for nprb := 1; nprb <= 275; nprb++ {
					for sym := 1; sym <= 14; sym++ {
						for layers := 1; layers <= 4; layers++ {
							checkMemo(t, &m, TBSParams{NPRB: nprb, NSymbols: sym, DMRSPerPRB: 12, Layers: layers, MCSIndex: mcs, Table: table})
						}
					}
				}
			}
		}
	}
}

// TestMemoInvalidAndCollisions: invalid parameters are answered with
// Compute's error every time and never stored, a key that collides
// with a stored one evicts it without ever being answered from it, and
// a nil memo computes.
func TestMemoInvalidAndCollisions(t *testing.T) {
	var m Memo
	bad := []TBSParams{
		{NPRB: 0, NSymbols: 12, Layers: 1},
		{NPRB: 1, NSymbols: 15, Layers: 1},
		{NPRB: 1, NSymbols: 12, Layers: 5},
		{NPRB: 1, NSymbols: 12, Layers: 1, MCSIndex: 99},
		{NPRB: 1, NSymbols: 12, Layers: 1, MCSIndex: 28, Table: TableQAM256},
		{NPRB: 4, NSymbols: 1, DMRSPerPRB: 12, Layers: 1}, // zero usable REs
		{NPRB: 4, NSymbols: 12, DMRSPerPRB: -1, Layers: 1},
	}
	for _, p := range bad {
		for rep := 0; rep < 2; rep++ {
			checkMemo(t, &m, p)
		}
		if e := m.entries[memoSlot(p)]; e.ok && e.key == p {
			t.Errorf("%+v: error memoised", p)
		}
	}

	// Find keys that share one entry and alternate them: every call
	// evicts the other, and each must still get its own answer.
	base := TBSParams{NPRB: 52, NSymbols: 12, DMRSPerPRB: 12, Layers: 1, MCSIndex: 9}
	var twins []TBSParams
	for nprb := 1; nprb <= 275 && len(twins) < 3; nprb++ {
		for mcs := 0; mcs <= 27 && len(twins) < 3; mcs++ {
			p := TBSParams{NPRB: nprb, NSymbols: 12, DMRSPerPRB: 12, Layers: 2, MCSIndex: mcs, Table: TableQAM256}
			if memoSlot(p) == memoSlot(base) && p != base {
				twins = append(twins, p)
			}
		}
	}
	if len(twins) == 0 {
		t.Fatal("no colliding keys found")
	}
	for rep := 0; rep < 3; rep++ {
		checkMemo(t, &m, base)
		for _, p := range twins {
			checkMemo(t, &m, p)
			if e := m.entries[memoSlot(p)]; !e.ok || e.key != p {
				t.Fatalf("%+v not stored in its entry after a miss", p)
			}
		}
	}

	var nilMemo *Memo
	checkMemo(t, nilMemo, base)
	checkMemo(t, nilMemo, bad[0])
}

// TestMemoZeroAllocs: a hit and a miss allocate nothing.
func TestMemoZeroAllocs(t *testing.T) {
	var m Memo
	p := TBSParams{NPRB: 52, NSymbols: 12, DMRSPerPRB: 12, Layers: 1, MCSIndex: 9}
	if n := testing.AllocsPerRun(100, func() {
		p.NPRB = 1 + (p.NPRB+1)%275
		m.Compute(p)
		m.Compute(p)
	}); n != 0 {
		t.Errorf("%.1f allocs per miss and hit, want 0", n)
	}
}

func BenchmarkMemoCompute(b *testing.B) {
	var m Memo
	p := TBSParams{NPRB: 52, NSymbols: 12, DMRSPerPRB: 12, Layers: 2, MCSIndex: 20, Table: TableQAM256}
	for i := 0; i < b.N; i++ {
		m.Compute(p)
	}
}
