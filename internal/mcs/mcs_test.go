package mcs

import (
	"testing"
	"testing/quick"

	"nrscope/internal/modulation"
)

func TestTableLookup(t *testing.T) {
	e, err := TableQAM64.Lookup(0)
	if err != nil || e.Qm != 2 || e.RTimes1024 != 120 {
		t.Errorf("qam64[0] = %+v, %v", e, err)
	}
	e, err = TableQAM64.Lookup(28)
	if err != nil || e.Qm != 6 || e.RTimes1024 != 948 {
		t.Errorf("qam64[28] = %+v, %v", e, err)
	}
	e, err = TableQAM256.Lookup(27)
	if err != nil || e.Qm != 8 || e.RTimes1024 != 948 {
		t.Errorf("qam256[27] = %+v, %v", e, err)
	}
	if _, err := TableQAM64.Lookup(29); err == nil {
		t.Error("qam64[29] accepted")
	}
	if _, err := TableQAM256.Lookup(-1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestTableMonotoneEfficiency(t *testing.T) {
	for _, tab := range []Table{TableQAM64, TableQAM256} {
		prev := 0.0
		for i := 0; i <= tab.MaxIndex(); i++ {
			e, err := tab.Lookup(i)
			if err != nil {
				t.Fatal(err)
			}
			eff := e.R() * float64(e.Qm)
			// The genuine 3GPP tables have a tiny dip at each Qm
			// transition (e.g. 64qam index 16->17); allow that.
			if eff <= prev-0.02 {
				t.Errorf("%v[%d]: efficiency %.3f not increasing (prev %.3f)", tab, i, eff, prev)
			}
			prev = eff
		}
	}
}

func TestTBSTableSorted(t *testing.T) {
	for i := 1; i < len(tbsTable); i++ {
		if tbsTable[i] <= tbsTable[i-1] {
			t.Fatalf("tbsTable not strictly increasing at %d", i)
		}
		if tbsTable[i]%8 != 0 {
			t.Errorf("tbsTable[%d] = %d not byte aligned", i, tbsTable[i])
		}
	}
	if tbsTable[len(tbsTable)-1] != 3824 {
		t.Errorf("last table TBS = %d, want 3824", tbsTable[len(tbsTable)-1])
	}
}

func TestComputePaperAppendixBExample(t *testing.T) {
	// Paper Appendix B: grant with nof_re=432, mcs=27, 256qam table
	// -> mod=256QAM, tbs=3240, R=0.926, nof_bits=3456.
	res, err := Compute(TBSParams{
		NPRB: 3, NSymbols: 12, DMRSPerPRB: 0, Overhead: 0,
		Layers: 1, MCSIndex: 27, Table: TableQAM256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NRE != 432 {
		t.Errorf("NRE = %d, want 432", res.NRE)
	}
	if res.TBS != 3240 {
		t.Errorf("TBS = %d, want 3240", res.TBS)
	}
	if res.NBits != 3456 {
		t.Errorf("NBits = %d, want 3456", res.NBits)
	}
	if res.Qm != 8 || res.Scheme != modulation.QAM256 {
		t.Errorf("Qm = %d scheme %v, want 8 / 256QAM", res.Qm, res.Scheme)
	}
	if res.R < 0.925 || res.R > 0.927 {
		t.Errorf("R = %.4f, want 0.926", res.R)
	}
}

func TestComputeRECap156(t *testing.T) {
	// N'RE is capped at 156 per PRB before scaling by nPRB.
	res, err := Compute(TBSParams{
		NPRB: 10, NSymbols: 14, DMRSPerPRB: 0, Overhead: 0,
		Layers: 1, MCSIndex: 10, Table: TableQAM64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NRE != 1560 {
		t.Errorf("NRE = %d, want 10*156", res.NRE)
	}
}

func TestComputeSmallAllocation(t *testing.T) {
	// 1 PRB, 2 symbols, 6 DMRS REs: tiny Ninfo must still give a legal TBS.
	res, err := Compute(TBSParams{
		NPRB: 1, NSymbols: 2, DMRSPerPRB: 6, Overhead: 0,
		Layers: 1, MCSIndex: 0, Table: TableQAM64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TBS < 24 {
		t.Errorf("TBS = %d below minimum", res.TBS)
	}
}

func TestComputeLargeLowRate(t *testing.T) {
	// Force the R <= 1/4 segmentation branch: big allocation at MCS 0.
	res, err := Compute(TBSParams{
		NPRB: 200, NSymbols: 12, DMRSPerPRB: 12, Overhead: 0,
		Layers: 4, MCSIndex: 0, Table: TableQAM64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TBS <= 3824 {
		t.Errorf("TBS = %d, expected > 3824", res.TBS)
	}
	if (res.TBS+24)%8 != 0 {
		t.Errorf("TBS+24 = %d not byte aligned", res.TBS+24)
	}
}

func TestComputeMonotoneInPRBs(t *testing.T) {
	prev := 0
	for nprb := 1; nprb <= 100; nprb++ {
		res, err := Compute(TBSParams{
			NPRB: nprb, NSymbols: 12, DMRSPerPRB: 12, Overhead: 0,
			Layers: 1, MCSIndex: 15, Table: TableQAM64,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.TBS < prev {
			t.Fatalf("TBS decreased at %d PRBs: %d < %d", nprb, res.TBS, prev)
		}
		prev = res.TBS
	}
}

func TestComputeMonotoneInMCS(t *testing.T) {
	for _, tab := range []Table{TableQAM64, TableQAM256} {
		prev := 0
		for idx := 0; idx <= tab.MaxIndex(); idx++ {
			res, err := Compute(TBSParams{
				NPRB: 20, NSymbols: 12, DMRSPerPRB: 12, Overhead: 0,
				Layers: 1, MCSIndex: idx, Table: tab,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.TBS < prev {
				t.Fatalf("%v: TBS decreased at MCS %d: %d < %d", tab, idx, res.TBS, prev)
			}
			prev = res.TBS
		}
	}
}

func TestComputeValidation(t *testing.T) {
	bad := []TBSParams{
		{NPRB: 0, NSymbols: 12, Layers: 1},
		{NPRB: 1, NSymbols: 0, Layers: 1},
		{NPRB: 1, NSymbols: 15, Layers: 1},
		{NPRB: 1, NSymbols: 12, Layers: 0},
		{NPRB: 1, NSymbols: 12, Layers: 5},
		{NPRB: 1, NSymbols: 12, Layers: 1, MCSIndex: 99},
	}
	for i, p := range bad {
		if _, err := Compute(p); err == nil {
			t.Errorf("case %d: bad params %+v accepted", i, p)
		}
	}
}

func TestComputeSmallTBSQuantisationProperty(t *testing.T) {
	// For any params landing in the <= 3824 branch, the TBS must be a
	// table value and at least N'info.
	f := func(nprbRaw, mcsRaw uint8) bool {
		nprb := 1 + int(nprbRaw%8)
		idx := int(mcsRaw) % 29
		res, err := Compute(TBSParams{
			NPRB: nprb, NSymbols: 12, DMRSPerPRB: 12, Overhead: 0,
			Layers: 1, MCSIndex: idx, Table: TableQAM64,
		})
		if err != nil {
			return false
		}
		if res.Ninfo > 3824 {
			return true // other branch, skip
		}
		for _, v := range tbsTable {
			if v == res.TBS {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexForEfficiency(t *testing.T) {
	if got := TableQAM64.IndexForEfficiency(100); got != 28 {
		t.Errorf("huge efficiency -> %d, want 28", got)
	}
	if got := TableQAM64.IndexForEfficiency(0.01); got != 0 {
		t.Errorf("tiny efficiency -> %d, want 0", got)
	}
	// Mid value: efficiency of index 10 (Qm=4, R=340/1024) = 1.328.
	got := TableQAM64.IndexForEfficiency(1.33)
	e, _ := TableQAM64.Lookup(got)
	if e.R()*float64(e.Qm) > 1.33 {
		t.Errorf("IndexForEfficiency returned too-aggressive MCS %d", got)
	}
}

func TestSpareCapacityBits(t *testing.T) {
	e, _ := TableQAM256.Lookup(27)
	lo, _ := TableQAM64.Lookup(0)
	high := SpareCapacityBitsExact(100, e, 2)
	low := SpareCapacityBitsExact(100, lo, 1)
	if high <= low {
		t.Errorf("spare bits at high MCS %.1f not greater than low MCS %.1f", high, low)
	}
	// Fig. 14a: same spare REs, different bit rates across UEs.
	if high == SpareCapacityBitsExact(100, lo, 2) {
		t.Error("spare capacity insensitive to MCS")
	}
}

func TestTableString(t *testing.T) {
	if TableQAM64.String() != "64qam" || TableQAM256.String() != "256qam" {
		t.Error("table String() wrong")
	}
}

func BenchmarkCompute(b *testing.B) {
	p := TBSParams{NPRB: 51, NSymbols: 12, DMRSPerPRB: 12, Overhead: 0, Layers: 2, MCSIndex: 20, Table: TableQAM256}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(p); err != nil {
			b.Fatal(err)
		}
	}
}
