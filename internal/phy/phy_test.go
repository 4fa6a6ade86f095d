package phy

import (
	"testing"
	"testing/quick"
	"time"
)

func TestNumerology(t *testing.T) {
	cases := []struct {
		mu       Numerology
		scs      int
		slots    int
		duration time.Duration
	}{
		{Mu0, 15, 10, time.Millisecond},
		{Mu1, 30, 20, 500 * time.Microsecond},
		{Mu2, 60, 40, 250 * time.Microsecond},
	}
	for _, c := range cases {
		if c.mu.SCSkHz() != c.scs {
			t.Errorf("%v: SCS = %d, want %d", c.mu, c.mu.SCSkHz(), c.scs)
		}
		if c.mu.SlotsPerFrame() != c.slots {
			t.Errorf("%v: slots/frame = %d, want %d", c.mu, c.mu.SlotsPerFrame(), c.slots)
		}
		if c.mu.SlotDuration() != c.duration {
			t.Errorf("%v: TTI = %v, want %v", c.mu, c.mu.SlotDuration(), c.duration)
		}
		if !c.mu.Valid() {
			t.Errorf("%v not valid", c.mu)
		}
	}
}

func TestSlotRefNextWraps(t *testing.T) {
	s := SlotRef{SFN: MaxSFN - 1, Slot: 19}
	next := s.Next(Mu1)
	if next.SFN != 0 || next.Slot != 0 {
		t.Errorf("Next at cycle end = %v, want 0.0", next)
	}
}

func TestPRBsForBandwidth(t *testing.T) {
	// The paper's cells: 20 MHz @ 30 kHz (srsRAN/Mosolab/Amarisoft),
	// 10 and 15 MHz @ 15 kHz (T-Mobile n25/n71).
	cases := []struct {
		mhz  int
		mu   Numerology
		want int
	}{{20, Mu1, 51}, {10, Mu0, 52}, {15, Mu0, 79}}
	for _, c := range cases {
		got, err := PRBsForBandwidth(c.mhz, c.mu)
		if err != nil || got != c.want {
			t.Errorf("PRBsForBandwidth(%d, %v) = %d, %v; want %d", c.mhz, c.mu, got, err, c.want)
		}
	}
	if _, err := PRBsForBandwidth(7, Mu1); err == nil {
		t.Error("unknown bandwidth did not error")
	}
}

func TestGridSetAtClone(t *testing.T) {
	g := NewGrid(51)
	if g.Width() != 612 {
		t.Fatalf("Width = %d, want 612", g.Width())
	}
	g.Set(3, 100, complex(1, -1))
	if g.At(3, 100) != complex(1, -1) {
		t.Error("Set/At mismatch")
	}
	c := g.Clone()
	g.Set(3, 100, 0)
	if c.At(3, 100) != complex(1, -1) {
		t.Error("Clone not deep")
	}
	c.Clear()
	if c.At(3, 100) != 0 {
		t.Error("Clear left data")
	}
}

func TestCORESETGeometry(t *testing.T) {
	cs := CORESET{ID: 0, StartPRB: 0, NumPRB: 48, Duration: 1, StartSym: 0}
	if err := cs.Validate(); err != nil {
		t.Fatal(err)
	}
	if cs.NumCCE() != 8 {
		t.Errorf("NumCCE = %d, want 8", cs.NumCCE())
	}
	// Duration-2 CORESET: REG numbering is time-first.
	cs2 := CORESET{ID: 1, StartPRB: 10, NumPRB: 24, Duration: 2, StartSym: 0}
	if err := cs2.Validate(); err != nil {
		t.Fatal(err)
	}
	prb, sym := cs2.REGPosition(0)
	if prb != 10 || sym != 0 {
		t.Errorf("REG 0 at (%d,%d), want (10,0)", prb, sym)
	}
	prb, sym = cs2.REGPosition(1)
	if prb != 10 || sym != 1 {
		t.Errorf("REG 1 at (%d,%d), want (10,1)", prb, sym)
	}
	prb, sym = cs2.REGPosition(2)
	if prb != 11 || sym != 0 {
		t.Errorf("REG 2 at (%d,%d), want (11,0)", prb, sym)
	}
}

func TestCORESETValidation(t *testing.T) {
	bad := []CORESET{
		{NumPRB: 5, Duration: 1},                // not a whole CCE count
		{NumPRB: 48, Duration: 3},               // duration out of range
		{NumPRB: 48, Duration: 1, StartSym: 14}, // out of slot
		{NumPRB: -6, Duration: 1},               // negative
		{NumPRB: 48, Duration: 1, StartPRB: -1}, // negative PRB
		{NumPRB: 9, Duration: 2, StartSym: 0},   // 18 REGs ok? 9*2=18 -> 3 CCEs: actually valid
	}
	for i, cs := range bad[:5] {
		if err := cs.Validate(); err == nil {
			t.Errorf("case %d: invalid CORESET %+v accepted", i, cs)
		}
	}
	if err := bad[5].Validate(); err != nil {
		t.Errorf("9 PRB x 2 symbol CORESET rejected: %v", err)
	}
}

func TestCandidateDataREsCount(t *testing.T) {
	cs := CORESET{ID: 0, NumPRB: 48, Duration: 1}
	for _, al := range AggregationLevels {
		if al > cs.NumCCE() {
			continue
		}
		res := cs.CandidateDataREs(0, al)
		if len(res) != al*54 {
			t.Errorf("AL%d: %d data REs, want %d", al, len(res), al*54)
		}
		dmrs := cs.CandidateDMRSREs(0, al)
		if len(dmrs) != al*18 {
			t.Errorf("AL%d: %d DMRS REs, want %d", al, len(dmrs), al*18)
		}
		// No overlap between data and DMRS sets.
		seen := make(map[RE]bool, len(res))
		for _, re := range res {
			seen[re] = true
		}
		for _, re := range dmrs {
			if seen[re] {
				t.Errorf("AL%d: RE %+v in both data and DMRS", al, re)
			}
		}
	}
}

func TestBitsPerCCE(t *testing.T) {
	if BitsPerCCE != 108 {
		t.Fatalf("BitsPerCCE = %d, want 108", BitsPerCCE)
	}
}

func TestCandidateCCEInRange(t *testing.T) {
	cs := CORESET{ID: 0, NumPRB: 48, Duration: 1} // 8 CCEs
	ss := SearchSpace{Type: UESearchSpace, Candidates: DefaultUECandidates()}
	f := func(rnti uint16, slotRaw uint8) bool {
		slot := int(slotRaw % 20)
		for _, c := range AppendSlotCandidates(nil, ss, cs, rnti, slot) {
			if c.StartCCE < 0 || c.StartCCE+c.AggLevel > cs.NumCCE() {
				return false
			}
			if c.StartCCE%c.AggLevel != 0 {
				return false // candidates are AL-aligned
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCandidateCCECommonIsRNTIIndependent(t *testing.T) {
	cs := CORESET{ID: 0, NumPRB: 48, Duration: 1}
	ss := SearchSpace{Type: CommonSearchSpace, Candidates: DefaultCommonCandidates()}
	a := AppendSlotCandidates(nil, ss, cs, 0x1111, 3)
	b := AppendSlotCandidates(nil, ss, cs, 0x2222, 3)
	if len(a) != len(b) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("common SS candidate %d differs across RNTIs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCandidateCCEUEVariesWithSlot(t *testing.T) {
	cs := CORESET{ID: 1, NumPRB: 96, Duration: 1} // 16 CCEs
	ss := SearchSpace{Type: UESearchSpace, Candidates: map[int]int{1: 6}}
	varies := false
	first, _ := CandidateCCE(ss, cs, 0x4601, 0, 1, 0)
	for slot := 1; slot < 20; slot++ {
		c, ok := CandidateCCE(ss, cs, 0x4601, slot, 1, 0)
		if !ok {
			t.Fatalf("no candidate at slot %d", slot)
		}
		if c != first {
			varies = true
		}
	}
	if !varies {
		t.Error("UE search space hashing does not vary with slot")
	}
}

func TestCandidateCCERejectsOversizeAL(t *testing.T) {
	cs := CORESET{ID: 0, NumPRB: 24, Duration: 1} // 4 CCEs
	ss := SearchSpace{Type: CommonSearchSpace, Candidates: map[int]int{8: 2}}
	if _, ok := CandidateCCE(ss, cs, 0, 0, 8, 0); ok {
		t.Error("AL8 accepted in a 4-CCE CORESET")
	}
}

func TestRIVRoundTrip(t *testing.T) {
	for _, n := range []int{24, 51, 52, 79, 106, 273} {
		for start := 0; start < n; start++ {
			for length := 1; start+length <= n; length++ {
				riv, err := EncodeRIV(n, start, length)
				if err != nil {
					t.Fatalf("EncodeRIV(%d,%d,%d): %v", n, start, length, err)
				}
				s, l, err := DecodeRIV(n, riv)
				if err != nil || s != start || l != length {
					t.Fatalf("DecodeRIV(%d,%d) = (%d,%d,%v), want (%d,%d)", n, riv, s, l, err, start, length)
				}
			}
		}
	}
}

func TestRIVUnique(t *testing.T) {
	n := 51
	seen := make(map[uint32][2]int)
	for start := 0; start < n; start++ {
		for length := 1; start+length <= n; length++ {
			riv, err := EncodeRIV(n, start, length)
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seen[riv]; dup {
				t.Fatalf("RIV %d for both %v and (%d,%d)", riv, prev, start, length)
			}
			seen[riv] = [2]int{start, length}
		}
	}
}

func TestRIVBits(t *testing.T) {
	// 51 PRBs: 51*52/2 = 1326 allocations -> 11 bits.
	if got := RIVBits(51); got != 11 {
		t.Errorf("RIVBits(51) = %d, want 11", got)
	}
	if got := RIVBits(273); got != 16 {
		t.Errorf("RIVBits(273) = %d, want 16", got)
	}
}

func TestEncodeRIVRejectsBad(t *testing.T) {
	if _, err := EncodeRIV(51, 50, 2); err == nil {
		t.Error("overflowing allocation accepted")
	}
	if _, err := EncodeRIV(51, 0, 0); err == nil {
		t.Error("zero-length allocation accepted")
	}
}

func TestTimeAllocTable(t *testing.T) {
	for i, ta := range DefaultTimeAllocTable {
		if err := ta.Validate(); err != nil {
			t.Errorf("row %d: %v", i, err)
		}
	}
	bad := TimeAlloc{StartSymbol: 10, NumSymbols: 6}
	if err := bad.Validate(); err == nil {
		t.Error("overlong time allocation accepted")
	}
}

func TestTDDPattern(t *testing.T) {
	p, err := NewTDDPattern("DDDSU")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "DDDSU" {
		t.Errorf("String = %q", p.String())
	}
	wantDir := []SlotDirection{SlotDownlink, SlotDownlink, SlotDownlink, SlotSpecial, SlotUplink}
	for i := 0; i < 10; i++ {
		if p.Direction(i) != wantDir[i%5] {
			t.Errorf("slot %d: direction %v, want %v", i, p.Direction(i), wantDir[i%5])
		}
	}
	// Downlink and special slots carry control.
	if p.Direction(3) == SlotUplink || p.Direction(4) != SlotUplink {
		t.Error("control availability wrong for S/U slots")
	}
	if p.HasDownlinkData(3) || !p.HasDownlinkData(0) {
		t.Error("data availability wrong")
	}
	if got := p.DownlinkDutyCycle(); got != 0.6 {
		t.Errorf("duty cycle %.2f, want 0.6", got)
	}
	if fdd := FDD(); !fdd.HasDownlinkData(12345) {
		t.Error("FDD pattern must always be downlink")
	}
	if _, err := NewTDDPattern("DDX"); err == nil {
		t.Error("bad pattern char accepted")
	}
	if _, err := NewTDDPattern(""); err == nil {
		t.Error("empty pattern accepted")
	}
}
