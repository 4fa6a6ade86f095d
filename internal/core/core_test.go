package core

import (
	"slices"
	"testing"
	"time"

	"nrscope/internal/channel"
	"nrscope/internal/dci"
	"nrscope/internal/obs"
	"nrscope/internal/pdcch"
	"nrscope/internal/phy"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/rrc"
	"nrscope/internal/telemetry"
	"nrscope/internal/traffic"
)

// testbed wires a gNB, a receiver and a scope together.
type testbed struct {
	gnb   *ran.GNB
	rx    *radio.Receiver
	scope *Scope
}

func newTestbed(t testing.TB, cfg ran.CellConfig, scopeSNR float64, opts ...Option) *testbed {
	t.Helper()
	gnb, err := ran.NewGNB(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{
		gnb:   gnb,
		rx:    radio.NewReceiver(channel.Normal, scopeSNR, cfg.Seed^0xACE),
		scope: New(cfg.CellID, opts...),
	}
}

// step advances one TTI through the whole chain.
func (tb *testbed) step() (*ran.SlotOutput, *SlotResult) {
	out := tb.gnb.Step()
	cap := tb.rx.Capture(out.SlotIdx, out.Ref, out.Grid)
	return out, tb.scope.ProcessSlot(cap)
}

func bulk(cfg ran.CellConfig) ran.UEFactory {
	return func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewBulk(4000), traffic.NewCBR(200e3, cfg.TTI()),
			channel.New(channel.Normal, cfg.BaseSNRdB, seed)
	}
}

func amari() ran.CellConfig {
	cfg := ran.AmarisoftCell()
	cfg.Seed = 99
	return cfg
}

func TestCellAcquisition(t *testing.T) {
	tb := newTestbed(t, amari(), 25)
	mibSlot, sib1Slot := -1, -1
	for i := 0; i < 200; i++ {
		_, res := tb.step()
		if res.MIBAcquired && mibSlot < 0 {
			mibSlot = res.SlotIdx
		}
		if res.SIB1Acquired && sib1Slot < 0 {
			sib1Slot = res.SlotIdx
			break
		}
	}
	if mibSlot < 0 {
		t.Fatal("MIB never acquired")
	}
	if sib1Slot < 0 {
		t.Fatal("SIB1 never acquired")
	}
	if !tb.scope.CellAcquired() {
		t.Fatal("CellAcquired false after both decodes")
	}
	sib1 := tb.scope.SIB1()
	if sib1.CarrierPRBs != tb.gnb.Config().CarrierPRBs {
		t.Errorf("SIB1 carrier %d, want %d", sib1.CarrierPRBs, tb.gnb.Config().CarrierPRBs)
	}
	if sib1.TDD.String() != tb.gnb.Config().TDD.String() {
		t.Errorf("SIB1 TDD %q, want %q", sib1.TDD.String(), tb.gnb.Config().TDD.String())
	}
	if tb.scope.MIB().CellID != tb.gnb.Config().CellID {
		t.Error("MIB cell id wrong")
	}
}

func TestUEDiscoveryViaMSG4(t *testing.T) {
	cfg := amari()
	tb := newTestbed(t, cfg, 25)
	want := tb.gnb.AddUE(bulk(cfg), -1)
	found := false
	for i := 0; i < 300 && !found; i++ {
		_, res := tb.step()
		for _, rnti := range res.NewUEs {
			if rnti == want {
				found = true
			} else {
				t.Errorf("ghost UE %#x discovered", rnti)
			}
		}
	}
	if !found {
		t.Fatal("scope never discovered the UE's C-RNTI")
	}
	if !tb.scope.SetupKnown() {
		t.Error("RRC Setup not learned from MSG4")
	}
	track := tb.scope.Track(want)
	if track == nil {
		t.Fatal("no track for discovered UE")
	}
}

func TestPerfectDecodingAtHighSNR(t *testing.T) {
	// At 25 dB the scope must see essentially every data DCI the gNB
	// sent, with identical grants — the zero-miss anchor of Figs. 7-9.
	cfg := amari()
	tb := newTestbed(t, cfg, 25)
	for i := 0; i < 2; i++ {
		tb.gnb.AddUE(bulk(cfg), -1)
	}
	// A UE can get several DCIs per TTI (retx + new data), so compare
	// per-(slot, rnti, direction, tbs, regs) multisets.
	type key struct {
		slot int
		rnti uint16
		dl   bool
		tbs  int
		regs int
	}
	gt := make(map[key]int)
	scope := make(map[key]int)
	discovered := make(map[uint16]int)
	acquired := -1

	const slots = 2000
	for i := 0; i < slots; i++ {
		out, res := tb.step()
		if res.SIB1Acquired {
			acquired = res.SlotIdx
		}
		for _, rnti := range res.NewUEs {
			discovered[rnti] = res.SlotIdx
		}
		for _, r := range out.GT {
			if r.Common {
				continue
			}
			// Only count DCIs after the scope knew both the cell and the UE.
			if acquired < 0 || r.SlotIdx <= acquired {
				continue
			}
			if d, ok := discovered[r.RNTI]; !ok || r.SlotIdx <= d {
				continue
			}
			gt[key{r.SlotIdx, r.RNTI, r.Grant.Downlink, r.Grant.TBS, r.Grant.REGCount()}]++
		}
		for _, rec := range res.Records {
			if rec.Common {
				continue
			}
			scope[key{rec.SlotIdx, rec.RNTI, rec.Downlink, rec.TBS, rec.REGs}]++
		}
	}
	total, missed := 0, 0
	for k, n := range gt {
		total += n
		got := scope[k]
		if got < n {
			missed += n - got
		}
	}
	if total < 100 {
		t.Fatalf("only %d GT DCIs; test too thin", total)
	}
	missRate := float64(missed) / float64(total)
	if missRate > 0.005 {
		t.Errorf("miss rate %.4f at 25 dB, want < 0.5%% (%d/%d)", missRate, missed, total)
	}
	// No phantom decodes either: every scope record must match a GT one.
	for k, n := range scope {
		if gt[k] < n {
			t.Fatalf("scope decoded a DCI the gNB never sent (or with wrong content): %+v", k)
		}
	}
}

func TestMissRateIncreasesWithNoise(t *testing.T) {
	missAt := func(snr float64) float64 {
		cfg := amari()
		tb := newTestbed(t, cfg, snr)
		tb.gnb.AddUE(bulk(cfg), -1)
		gt, seen := 0, 0
		discovered := make(map[uint16]int)
		for i := 0; i < 1500; i++ {
			out, res := tb.step()
			for _, rnti := range res.NewUEs {
				discovered[rnti] = res.SlotIdx
			}
			for _, r := range out.GT {
				if r.Common {
					continue
				}
				if d, ok := discovered[r.RNTI]; ok && r.SlotIdx > d {
					gt++
				}
			}
			for _, rec := range res.Records {
				if !rec.Common {
					seen++
				}
			}
		}
		if gt == 0 {
			return 1
		}
		miss := float64(gt-seen) / float64(gt)
		if miss < 0 {
			miss = 0
		}
		return miss
	}
	clean := missAt(25)
	noisy := missAt(1)
	if noisy <= clean {
		t.Errorf("miss at 1 dB (%.3f) not above 25 dB (%.3f)", noisy, clean)
	}
}

func TestRetransmissionDetectionMatchesGT(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy HARQ session; skipped in -short (race CI)")
	}
	cfg := amari()
	cfg.BaseSNRdB = 14 // fading channel below triggers HARQ
	tb := newTestbed(t, cfg, 25)
	factory := func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewBulk(3000), nil, channel.New(channel.Vehicle, cfg.BaseSNRdB, seed)
	}
	rnti := tb.gnb.AddUE(factory, -1)
	// Compare per-slot retransmission counts: (slot, dl) -> (#dcis, #retx).
	type counts struct{ total, retx int }
	type key struct {
		slot int
		dl   bool
	}
	gtC := make(map[key]*counts)
	scC := make(map[key]*counts)
	bump := func(m map[key]*counts, k key, isRetx bool) {
		c := m[k]
		if c == nil {
			c = &counts{}
			m[k] = c
		}
		c.total++
		if isRetx {
			c.retx++
		}
	}
	var discoveredAt = -1
	acquired := -1
	for i := 0; i < 3000; i++ {
		out, res := tb.step()
		if res.SIB1Acquired {
			acquired = res.SlotIdx
		}
		for _, r := range res.NewUEs {
			if r == rnti {
				discoveredAt = res.SlotIdx
			}
		}
		for _, r := range out.GT {
			if r.Common || r.RNTI != rnti {
				continue
			}
			if discoveredAt >= 0 && r.SlotIdx > discoveredAt && acquired >= 0 && r.SlotIdx > acquired {
				bump(gtC, key{r.SlotIdx, r.Grant.Downlink}, r.IsRetx)
			}
		}
		for _, rec := range res.Records {
			if rec.Common || rec.RNTI != rnti {
				continue
			}
			bump(scC, key{rec.SlotIdx, rec.Downlink}, rec.IsRetx)
		}
	}
	retxSeen, checked := 0, 0
	for k, want := range gtC {
		got, ok := scC[k]
		if !ok || got.total != want.total {
			continue // missed DCIs in this slot; miss rate tested elsewhere
		}
		checked++
		if got.retx != want.retx {
			t.Fatalf("retx count mismatch at %+v: scope %d, GT %d", k, got.retx, want.retx)
		}
		retxSeen += want.retx
	}
	if checked < 100 {
		t.Fatalf("only %d slots checked", checked)
	}
	if retxSeen == 0 {
		t.Error("no retransmissions observed on a Vehicle channel")
	}
}

func TestThroughputTracksLedger(t *testing.T) {
	cfg := amari()
	tb := newTestbed(t, cfg, 25)
	// The paper's workloads ("watching videos or downloading files",
	// §5.2.2) build queues, so transport blocks run full and the TBS
	// overhead vs delivered payload stays small.
	factory := func(r uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewVideo(30, 25000, 0.2, cfg.TTI(), seed), nil,
			channel.New(channel.Normal, cfg.BaseSNRdB, seed)
	}
	rnti := tb.gnb.AddUE(factory, -1)
	const slots = 6000 // 3 s
	for i := 0; i < slots; i++ {
		tb.step()
	}
	ue := tb.gnb.UE(rnti)
	if ue == nil {
		t.Fatal("UE lost")
	}
	// Compare over a long window to absorb frame-boundary timing.
	gt := ue.Ledger.WindowBitrate(slots-4000, slots)
	win := telemetry.NewWindowEstimator(4000*cfg.TTI(), cfg.TTI())
	_ = win
	est := tb.scope.Bitrate(rnti, true, slots)
	// Average the 100 ms estimator over the tail by sampling: simpler,
	// compare the scope estimate directly against the same-window ledger.
	shortGT := ue.Ledger.WindowBitrate(slots-tb.scope.estimatorWindowSlots(), slots)
	if gt == 0 || shortGT == 0 {
		t.Fatal("ledger saw no traffic")
	}
	relErr := (est - shortGT) / shortGT
	// TBS counts payload + MAC header + padding, so the estimate should
	// sit slightly above the ledger (paper: ~0.9% average error).
	if relErr < -0.02 || relErr > 0.06 {
		t.Errorf("throughput estimate %.0f vs ledger %.0f (err %.2f%%)", est, shortGT, 100*relErr)
	}
}

func TestUEActivityAging(t *testing.T) {
	cfg := amari()
	tb := newTestbed(t, cfg, 25, WithIdleHorizon(400*cfg.TTI()))
	tb.gnb.AddUE(bulk(cfg), 1000) // departs after 1000 slots
	sawUE := false
	for i := 0; i < 2500; i++ {
		_, res := tb.step()
		if len(res.NewUEs) > 0 {
			sawUE = true
		}
	}
	if !sawUE {
		t.Fatal("UE never discovered")
	}
	departed := tb.scope.DepartedUEs()
	if len(departed) != 1 {
		t.Fatalf("departed sessions = %d, want 1", len(departed))
	}
	active := departed[0].ActiveSlots()
	if active < 500 || active > 1100 {
		t.Errorf("measured active time %d slots, want ~900", active)
	}
	if len(tb.scope.KnownUEs()) != 0 || len(tb.scope.tracks) != 0 {
		t.Error("departed UE still tracked")
	}
}

// TestTrackedIndexAfterPurge: purgeInactive re-indexes the survivors as
// it filters, so the C-RNTI map that recovered RNTIs are looked up in
// stays in step with the tracked list when a purge leaves gaps and a
// departed C-RNTI is discovered again.
func TestTrackedIndexAfterPurge(t *testing.T) {
	cfg := amari()
	s := handScope(cfg, cfg.Setup.CORESET)
	s.inactivitySlots = 300
	ues := trackedRNTIs(4)
	discover := func(slot int, rntis ...uint16) {
		res := &decodeResult{slotIdx: slot}
		for _, rnti := range rntis {
			res.newUEs = append(res.newUEs, newUE{rnti: rnti})
		}
		s.merge(res)
	}
	discover(0, ues...)
	// The 1st and 3rd stay active; the purge at slot 400 ages out the
	// 2nd and 4th.
	s.merge(&decodeResult{slotIdx: 400, data: []foundDCI{{rnti: ues[0]}, {rnti: ues[2]}}})
	if got, want := s.KnownUEs(), []uint16{ues[0], ues[2]}; !slices.Equal(got, want) {
		t.Fatalf("tracked after the purge: %#x, want %#x", got, want)
	}
	discover(401, ues[3])
	want := []uint16{ues[0], ues[2], ues[3]}
	if got := s.KnownUEs(); !slices.Equal(got, want) {
		t.Fatalf("tracked after re-discovery: %#x, want %#x", got, want)
	}
	for _, rnti := range want {
		if track := s.Track(rnti); track == nil || track.RNTI != rnti {
			t.Fatalf("Track(%#x) does not return that UE's track", rnti)
		}
	}
	if s.Track(ues[1]) != nil {
		t.Fatalf("departed %#x still tracked", ues[1])
	}

	// One slot carrying a DCI for each of the 3rd and 4th.
	ref := phy.SlotRef{SFN: 41, Slot: 1}
	g := phy.NewGrid(cfg.CarrierPRBs)
	size := dci.ClassSize(dci.NonFallback, s.dataCfg)
	var placed []phy.Candidate
	for _, rnti := range want[1:] {
		cands := phy.AppendSlotCandidates(nil, s.ueSS, s.ueCoreset, rnti, ref.Slot)
		for i := len(cands) - 1; i >= 0; i-- { // lowest aggregation level first
			if cand := cands[i]; !overlapsAny(placed, cand) && pdcch.PayloadFits(size, cand.AggLevel) {
				placeUEDCI(t, s, g, ref, cand, rnti, 1)
				placed = append(placed, cand)
				break
			}
		}
	}
	if len(placed) != 2 {
		t.Fatalf("placed %d DCIs, want 2", len(placed))
	}
	const slot = 410
	res := s.ProcessSlot(&radio.Capture{SlotIdx: slot, Ref: ref, Grid: g, N0: 1e-4})
	var got []uint16
	for _, rec := range res.Records {
		if !rec.Common {
			got = append(got, rec.RNTI)
		}
	}
	if !slices.Equal(got, want[1:]) {
		t.Fatalf("UE DCIs emitted for %#x, want %#x", got, want[1:])
	}
	for _, rnti := range want[1:] {
		if last := s.Track(rnti).LastSeen; last != slot {
			t.Errorf("%#x last seen at slot %d, want %d", rnti, last, slot)
		}
	}
}

func TestSpareCapacityReported(t *testing.T) {
	cfg := amari()
	tb := newTestbed(t, cfg, 25)
	tb.gnb.AddUE(bulk(cfg), -1)
	var last *telemetry.SpareCapacity
	for i := 0; i < 1500; i++ {
		_, res := tb.step()
		// Keep a slot where the UE was actually scheduled, so both used
		// and spare REs are meaningful.
		if res.Spare != nil && len(res.Spare.UEs) > 0 && res.Spare.UsedREs > 0 {
			last = res.Spare
		}
	}
	if last == nil {
		t.Fatal("no spare capacity with active UEs ever reported")
	}
	if last.UsedREs <= 0 || last.TotalREs <= last.UsedREs {
		t.Errorf("implausible spare: %+v", last)
	}
	for i, u := range last.UEs {
		if bits := last.Bits(i); bits <= 0 {
			t.Errorf("UE %#x spare bits %.0f", u.RNTI, bits)
		}
	}
}

func TestMSG4ShortcutTradeoff(t *testing.T) {
	// The paper's §3.1.2 shortcut skips the RRC Setup PDSCH decode once
	// one Setup is known. Its cost is ghost UEs from CRC aliasing on a
	// noisy channel; the scope must (a) still find real UEs and (b) keep
	// its tracking state bounded by aging ghosts out.
	cfg := amari()
	tb := newTestbed(t, cfg, 8, // noisy capture: aliasing happens
		WithVerifyMSG4(false), WithIdleHorizon(500*cfg.TTI()))
	rnti := tb.gnb.AddUE(bulk(cfg), -1)
	found := false
	maxTracked := 0
	for i := 0; i < 4000; i++ {
		_, res := tb.step()
		for _, r := range res.NewUEs {
			if r == rnti {
				found = true
			}
		}
		if n := len(tb.scope.KnownUEs()); n > maxTracked {
			maxTracked = n
		}
	}
	if !found {
		t.Fatal("shortcut mode never discovered the real UE")
	}
	// Ghosts may appear, but aging must keep the set small.
	if final := len(tb.scope.KnownUEs()); final > 8 {
		t.Errorf("tracked set grew to %d (max %d); ghosts not aged out", final, maxTracked)
	}
}

func TestFallbackFormatCellEndToEnd(t *testing.T) {
	// A cell whose UE-data DCIs use the fallback formats (1_0/0_0, 64QAM
	// table, single layer) — exercises the Fallback size class in the
	// blind decoder's USS pass.
	cfg := amari()
	cfg.Setup.NonFallback = false
	cfg.Setup.MCSTable = mcsTableQAM64()
	tb := newTestbed(t, cfg, 25)
	rnti := tb.gnb.AddUE(bulk(cfg), -1)
	type key struct {
		slot int
		dl   bool
		tbs  int
	}
	gt := make(map[key]int)
	scope := make(map[key]int)
	discovered, acquired := -1, -1
	for i := 0; i < 1500; i++ {
		out, res := tb.step()
		if res.SIB1Acquired {
			acquired = res.SlotIdx
		}
		for _, r := range res.NewUEs {
			if r == rnti {
				discovered = res.SlotIdx
			}
		}
		for _, r := range out.GT {
			if r.Common || r.RNTI != rnti {
				continue
			}
			if r.Grant.Format.String() != "1_0" && r.Grant.Format.String() != "0_0" {
				t.Fatalf("fallback cell issued format %v", r.Grant.Format)
			}
			if discovered >= 0 && acquired >= 0 && r.SlotIdx > discovered && r.SlotIdx > acquired {
				gt[key{r.SlotIdx, r.Grant.Downlink, r.Grant.TBS}]++
			}
		}
		for _, rec := range res.Records {
			if !rec.Common && rec.RNTI == rnti {
				scope[key{rec.SlotIdx, rec.Downlink, rec.TBS}]++
			}
		}
	}
	total, missed := 0, 0
	for k, n := range gt {
		total += n
		if scope[k] < n {
			missed += n - scope[k]
		}
	}
	if total < 100 {
		t.Fatalf("only %d fallback DCIs", total)
	}
	if rate := float64(missed) / float64(total); rate > 0.01 {
		t.Errorf("fallback-format miss rate %.4f at 25 dB (%d/%d)", rate, missed, total)
	}
}

func TestManualCellInfoSkipsAcquisition(t *testing.T) {
	// The §3.1.1 NSA mode: the cell configuration is provided manually,
	// so the scope tracks UEs without ever decoding MIB/SIB1.
	cfg := amari()
	gnb, err := ran.NewGNB(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := gnb.AddUE(bulk(cfg), -1)
	rx := radio.NewReceiver(channel.Normal, 25, cfg.Seed^0xACE)
	mib := rrc.MIB{
		SFN: 0, Mu: cfg.Mu, CellID: cfg.CellID,
		Coreset0StartPRB: cfg.Coreset0.StartPRB,
		Coreset0NumPRB:   cfg.Coreset0.NumPRB,
		Coreset0Duration: cfg.Coreset0.Duration,
	}
	scope := New(cfg.CellID, WithManualCellInfo(mib, cfg.SIB1()))
	if !scope.CellAcquired() {
		t.Fatal("manual cell info did not mark the cell acquired")
	}
	found := false
	records := 0
	for i := 0; i < 400; i++ {
		out := gnb.Step()
		res := scope.ProcessSlot(rx.Capture(out.SlotIdx, out.Ref, out.Grid))
		for _, r := range res.NewUEs {
			if r == want {
				found = true
			}
		}
		for _, rec := range res.Records {
			if !rec.Common {
				records++
			}
		}
		if res.MIBAcquired || res.SIB1Acquired {
			t.Fatal("NSA-mode scope re-acquired broadcast info")
		}
	}
	if !found {
		t.Fatal("NSA-mode scope never discovered the UE")
	}
	if records == 0 {
		t.Fatal("NSA-mode scope produced no data records")
	}
}

func TestProcessingTimeGrowsWithUEs(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive scaling test; skipped in -short (race CI)")
	}
	elapsed := func(ues int) time.Duration {
		cfg := amari()
		tb := newTestbed(t, cfg, 25)
		for i := 0; i < ues; i++ {
			tb.gnb.AddUE(bulk(cfg), -1)
		}
		// settle
		for i := 0; i < 600; i++ {
			tb.step()
		}
		var total time.Duration
		n := 0
		for i := 0; i < 300; i++ {
			_, res := tb.step()
			if res.Records != nil {
				total += res.Elapsed
				n++
			}
		}
		if n == 0 {
			t.Fatal("no processed slots")
		}
		return total / time.Duration(n)
	}
	small := elapsed(2)
	large := elapsed(16)
	if large <= small {
		t.Errorf("processing time with 16 UEs (%v) not above 2 UEs (%v)", large, small)
	}
}

func TestObsSnapshotDeltasAcrossRun(t *testing.T) {
	// The acceptance test for the instrumentation itself: counter deltas
	// across a simulated multi-slot run must account for the work done.
	cfg := amari()
	tb := newTestbed(t, cfg, 25)
	tb.gnb.AddUE(bulk(cfg), -1)

	before := obs.Snapshot()
	const slots = 800
	for i := 0; i < slots; i++ {
		tb.step()
	}
	d := obs.Delta(before, obs.Snapshot())

	if got := d["nrscope_scope_slots_processed_total"]; got != slots {
		t.Errorf("slots_processed delta = %g, want %d", got, slots)
	}
	if got := d["nrscope_scope_decode_latency_seconds_count"]; got != slots {
		t.Errorf("decode latency histogram count delta = %g, want %d", got, slots)
	}
	if d["nrscope_scope_decode_latency_seconds_sum"] <= 0 {
		t.Error("decode latency histogram sum did not grow")
	}
	if got := d["nrscope_scope_mib_acquired_total"]; got != 1 {
		t.Errorf("mib_acquired delta = %g, want 1", got)
	}
	if got := d["nrscope_scope_sib1_acquired_total"]; got != 1 {
		t.Errorf("sib1_acquired delta = %g, want 1", got)
	}
	if got := d["nrscope_scope_msg4_hits_total"]; got < 1 {
		t.Errorf("msg4_hits delta = %g, want >= 1", got)
	}
	if got := d["nrscope_scope_crnti_recoveries_total"]; got < 1 {
		t.Errorf("crnti_recoveries delta = %g, want >= 1", got)
	}
	attempted := d["nrscope_scope_blind_candidates_attempted_total"]
	matched := d["nrscope_scope_blind_candidates_matched_total"]
	if attempted <= 0 {
		t.Error("no blind-decode candidates attempted")
	}
	if matched <= 0 || matched > attempted {
		t.Errorf("candidates matched delta = %g (attempted %g)", matched, attempted)
	}
	if d["nrscope_scope_blind_positions_decoded_total"] <= 0 {
		t.Error("position cache never decoded a candidate position")
	}
	if tracked := obs.Snapshot()["nrscope_scope_ues_tracked"]; tracked < 1 {
		t.Errorf("ues_tracked gauge = %g, want >= 1", tracked)
	}
}
