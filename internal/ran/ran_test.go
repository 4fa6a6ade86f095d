package ran

import (
	"testing"
	"time"

	"nrscope/internal/bits"
	"nrscope/internal/channel"
	"nrscope/internal/dci"
	"nrscope/internal/pdcch"
	"nrscope/internal/phy"
	"nrscope/internal/rrc"
	"nrscope/internal/traffic"
)

func testCell() CellConfig {
	c := AmarisoftCell()
	c.Seed = 42
	return c
}

func bulkFactory(cfg CellConfig) UEFactory {
	return func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewBulk(4000), traffic.NewCBR(100e3, cfg.TTI()),
			channel.New(channel.Normal, cfg.BaseSNRdB, seed)
	}
}

// run steps the gNB n slots and returns all outputs.
func run(t *testing.T, g *GNB, n int) []*SlotOutput {
	t.Helper()
	out := make([]*SlotOutput, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.Step())
	}
	return out
}

func TestCellPresetsValid(t *testing.T) {
	for _, cfg := range []CellConfig{SrsRANCell(), MosolabCell(), AmarisoftCell(), TMobileCell(1), TMobileCell(2)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if _, err := NewGNB(cfg, 1000); err != nil {
			t.Errorf("%s: NewGNB: %v", cfg.Name, err)
		}
	}
	if SrsRANCell().TTI() != 500*time.Microsecond {
		t.Error("srsRAN cell TTI wrong")
	}
}

func TestRACHConnectsUE(t *testing.T) {
	g, err := NewGNB(testCell(), 4000)
	if err != nil {
		t.Fatal(err)
	}
	rnti := g.AddUE(bulkFactory(g.Config()), -1)
	if rnti < firstCRNTI {
		t.Fatalf("rnti %#x below first C-RNTI", rnti)
	}
	var connected bool
	var msg4Seen bool
	for i := 0; i < 200 && !connected; i++ {
		out := g.Step()
		for _, r := range out.GT {
			if r.MSG4 && r.RNTI == rnti {
				msg4Seen = true
			}
		}
		for _, e := range out.Events {
			if e.Kind == EventConnected && e.RNTI == rnti {
				connected = true
			}
		}
	}
	if !connected {
		t.Fatal("UE did not connect within 200 slots")
	}
	if !msg4Seen {
		t.Error("no MSG4 GT record for the connecting UE")
	}
	if got := g.ConnectedRNTIs(); len(got) != 1 || got[0] != rnti {
		t.Errorf("ConnectedRNTIs = %v", got)
	}
}

func TestRACHConnectsOnFDDCell(t *testing.T) {
	cfg := TMobileCell(1)
	cfg.Seed = 7
	g, err := NewGNB(cfg, 4000)
	if err != nil {
		t.Fatal(err)
	}
	g.AddUE(bulkFactory(cfg), -1)
	connected := false
	for i := 0; i < 200 && !connected; i++ {
		for _, e := range g.Step().Events {
			if e.Kind == EventConnected {
				connected = true
			}
		}
	}
	if !connected {
		t.Fatal("FDD cell never completed RACH")
	}
}

func TestBroadcastCadence(t *testing.T) {
	g, err := NewGNB(testCell(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	sib1 := 0
	for _, out := range run(t, g, 400) {
		for _, r := range out.GT {
			if r.Common && r.RNTI == dci.SIRNTI {
				sib1++
			}
		}
	}
	// 400 slots / 40-slot period = 10 SIB1s.
	if sib1 < 9 || sib1 > 11 {
		t.Errorf("%d SIB1 broadcasts in 400 slots, want ~10", sib1)
	}
}

func TestMIBDecodableFromGrid(t *testing.T) {
	g, err := NewGNB(testCell(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < 40 && !found; i++ {
		out := g.Step()
		if out.Grid == nil || out.Ref.Slot != 1 {
			continue
		}
		data, ok := pdschDecodePBCH(out.Grid, g.Config().CellID)
		if !ok {
			t.Fatal("PBCH not decodable from clean grid")
		}
		mib, err := rrc.DecodeMIB(data)
		if err != nil {
			t.Fatalf("MIB decode: %v", err)
		}
		if mib.SFN != out.Ref.SFN || mib.CellID != g.Config().CellID {
			t.Errorf("MIB content wrong: %+v at %v", mib, out.Ref)
		}
		found = true
	}
	if !found {
		t.Fatal("no PBCH slot observed")
	}
}

func TestDataDCIsDecodableFromGrid(t *testing.T) {
	// Every GT data record must be re-decodable from the clean grid at
	// the logged candidate with the logged RNTI — the core consistency
	// the whole evaluation rests on.
	cfg := testCell()
	g, err := NewGNB(cfg, 4000)
	if err != nil {
		t.Fatal(err)
	}
	g.AddUE(bulkFactory(cfg), -1)
	g.AddUE(bulkFactory(cfg), -1)
	codec := pdcch.New(cfg.CellID)
	dciCfg := cfg.DCIConfig()
	checked := 0
	// Grids are double-buffered (valid until the second-next Step), so
	// decode each slot before stepping again.
	for i := 0; i < 600; i++ {
		out := g.Step()
		if out.Grid == nil {
			continue
		}
		for _, r := range out.GT {
			if r.Common {
				continue
			}
			cand := phy.Candidate{AggLevel: r.AggLevel, StartCCE: r.StartCCE}
			sizeClass := dci.NonFallback
			size := dci.ClassSize(sizeClass, dciCfg)
			block, err := codec.DecodeCandidateInto(nil, out.Grid, cfg.Setup.CORESET, cand, out.Ref.Slot, size, 1e-4)
			if err != nil {
				t.Fatal(err)
			}
			payload, ok := bits.CheckDCICRC(block, r.RNTI)
			if !ok {
				t.Fatalf("GT DCI at %v not decodable with its RNTI", out.Ref)
			}
			d, err := dci.Unpack(payload, sizeClass, dciCfg)
			if err != nil {
				t.Fatal(err)
			}
			grant, err := dci.ToGrant(d, r.RNTI, dciCfg, cfg.Setup.LinkConfig())
			if err != nil {
				t.Fatal(err)
			}
			if grant.TBS != r.Grant.TBS || grant.NumPRB != r.Grant.NumPRB {
				t.Fatalf("re-decoded grant differs: %v vs %v", grant, r.Grant)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Errorf("only %d data DCIs checked; traffic too thin", checked)
	}
}

func TestSchedulerConservesPRBs(t *testing.T) {
	cfg := testCell()
	g, err := NewGNB(cfg, 4000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		g.AddUE(bulkFactory(cfg), -1)
	}
	for _, out := range run(t, g, 500) {
		if out.Grid == nil {
			continue
		}
		// Downlink allocations must not overlap in PRBs.
		type span struct{ lo, hi int }
		var spans []span
		for _, r := range out.GT {
			if !r.Grant.Downlink {
				continue
			}
			spans = append(spans, span{r.Grant.StartPRB, r.Grant.StartPRB + r.Grant.NumPRB})
		}
		for i := range spans {
			if spans[i].hi > cfg.CarrierPRBs {
				t.Fatalf("allocation beyond carrier at %v", out.Ref)
			}
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					t.Fatalf("overlapping DL allocations at %v: %v %v", out.Ref, spans[i], spans[j])
				}
			}
		}
	}
}

func TestUplinkGrantsIssued(t *testing.T) {
	cfg := testCell()
	g, err := NewGNB(cfg, 4000)
	if err != nil {
		t.Fatal(err)
	}
	g.AddUE(bulkFactory(cfg), -1)
	ul := 0
	for _, out := range run(t, g, 600) {
		for _, r := range out.GT {
			if !r.Common && !r.Grant.Downlink {
				ul++
			}
		}
	}
	if ul == 0 {
		t.Error("no uplink grants issued despite UL traffic")
	}
}

func TestHARQRetransmissionsUnderBadChannel(t *testing.T) {
	cfg := testCell()
	cfg.BaseSNRdB = 14
	g, err := NewGNB(cfg, 8000)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewBulk(3000), nil, channel.New(channel.Urban, cfg.BaseSNRdB, seed)
	}
	g.AddUE(factory, -1)
	newTx, retx := 0, 0
	for _, out := range run(t, g, 4000) {
		for _, r := range out.GT {
			if r.Common || !r.Grant.Downlink {
				continue
			}
			if r.IsRetx {
				retx++
			} else {
				newTx++
			}
		}
	}
	if newTx == 0 {
		t.Fatal("no downlink data scheduled")
	}
	if retx == 0 {
		t.Error("Urban channel produced zero retransmissions")
	}
	ratio := float64(retx) / float64(newTx+retx)
	if ratio > 0.8 {
		t.Errorf("retx ratio %.2f implausibly high", ratio)
	}
}

func TestRetxNDIUnchangedAndTBSPreserved(t *testing.T) {
	cfg := testCell()
	cfg.BaseSNRdB = 12
	g, err := NewGNB(cfg, 8000)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewBulk(3000), nil, channel.New(channel.Vehicle, cfg.BaseSNRdB, seed)
	}
	rnti := g.AddUE(factory, -1)
	// last (ndi, tbs) per harq id from new transmissions
	type harqState struct {
		ndi uint8
		tbs int
	}
	last := make(map[int]harqState)
	checked := 0
	for _, out := range run(t, g, 4000) {
		for _, r := range out.GT {
			if r.Common || r.RNTI != rnti || !r.Grant.Downlink {
				continue
			}
			id := r.Grant.HARQID
			if r.IsRetx {
				prev, ok := last[id]
				if !ok {
					t.Fatal("retx before any new data on process")
				}
				if r.Grant.NDI != prev.ndi {
					t.Fatal("retx toggled NDI")
				}
				if r.Grant.TBS != prev.tbs {
					t.Fatalf("retx TBS %d != original %d", r.Grant.TBS, prev.tbs)
				}
				checked++
			} else {
				if prev, ok := last[id]; ok && prev.ndi == r.Grant.NDI {
					t.Fatal("new data kept same NDI")
				}
				last[id] = harqState{r.Grant.NDI, r.Grant.TBS}
			}
		}
	}
	if checked == 0 {
		t.Skip("no retransmissions observed (channel too kind)")
	}
}

func TestLedgerRecordsDeliveries(t *testing.T) {
	cfg := testCell()
	g, err := NewGNB(cfg, 4000)
	if err != nil {
		t.Fatal(err)
	}
	rnti := g.AddUE(bulkFactory(cfg), -1)
	var gtDelivered int64
	for _, out := range run(t, g, 2000) {
		for _, r := range out.GT {
			if r.RNTI == rnti && r.Grant.Downlink && !r.Common {
				gtDelivered += int64(r.DeliveredBytes)
			}
		}
	}
	u := g.UE(rnti)
	if u == nil {
		t.Fatal("UE lost")
	}
	if u.Ledger.TotalBytes() == 0 {
		t.Fatal("ledger empty despite bulk traffic")
	}
	if u.Ledger.TotalBytes() != gtDelivered {
		t.Errorf("ledger %d bytes, GT says %d", u.Ledger.TotalBytes(), gtDelivered)
	}
}

func TestPopulationChurn(t *testing.T) {
	cfg := testCell()
	g, err := NewGNB(cfg, 40000)
	if err != nil {
		t.Fatal(err)
	}
	pop := DefaultPopulation()
	pop.ArrivalsPerSecond = 5
	pop.MedianSessionSeconds = 2
	g.SetPopulation(pop)
	arrived, connected, departed := 0, 0, 0
	for i := 0; i < 20000; i++ { // 10 s
		out := g.Step()
		for _, e := range out.Events {
			switch e.Kind {
			case EventArrived:
				arrived++
			case EventConnected:
				connected++
			case EventDeparted:
				departed++
			}
		}
	}
	if arrived < 20 {
		t.Fatalf("only %d arrivals in 10 s at 5/s", arrived)
	}
	if connected == 0 || departed == 0 {
		t.Errorf("connected=%d departed=%d; churn not flowing", connected, departed)
	}
	if connected > arrived {
		t.Errorf("connected %d > arrived %d", connected, arrived)
	}
}

func TestUplinkSlotsProduceNoGrid(t *testing.T) {
	g, err := NewGNB(testCell(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range run(t, g, 100) {
		dir := g.Config().TDD.Direction(out.SlotIdx)
		if dir == phy.SlotUplink && out.Grid != nil {
			t.Fatal("uplink slot produced a downlink grid")
		}
		if dir != phy.SlotUplink && out.Grid == nil {
			t.Fatal("downlink slot missing grid")
		}
	}
}

func TestGNBRejectsBadConfig(t *testing.T) {
	cfg := testCell()
	cfg.Setup.CORESET.StartPRB = 6 // desynchronised control regions
	if _, err := NewGNB(cfg, 100); err == nil {
		t.Error("mismatched CORESETs accepted")
	}
	cfg = testCell()
	if _, err := NewGNB(cfg, 0); err == nil {
		t.Error("zero maxSlots accepted")
	}
}

// pdschDecodePBCH adapts the pdsch decoder for the test (tiny noise).
func pdschDecodePBCH(g *phy.Grid, cellID uint16) ([]byte, bool) {
	return pdschDecode(g, cellID)
}

func BenchmarkGNBStep8UEs(b *testing.B) {
	cfg := testCell()
	g, err := NewGNB(cfg, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		g.AddUE(nil, -1)
	}
	for i := 0; i < 200; i++ {
		g.Step() // settle RACH
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step()
	}
}
