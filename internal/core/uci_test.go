package core

import (
	"testing"

	"nrscope/internal/channel"
	"nrscope/internal/raceflag"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/traffic"
)

// TestUCIDecodingMatchesGroundTruth drives the full chain: the gNB's UEs
// transmit SR/CQI/HARQ-ACK on the uplink carrier, a second receiver
// captures it, and the scope decodes every report for the UEs it tracks.
func TestUCIDecodingMatchesGroundTruth(t *testing.T) {
	cfg := amari()
	tb := newTestbed(t, cfg, 25)
	ulRX := radio.NewReceiver(channel.Normal, 25, cfg.Seed^0xBEE)
	factory := func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewVideo(30, 15000, 0.2, cfg.TTI(), seed),
			traffic.NewCBR(300e3, cfg.TTI()),
			channel.New(channel.Pedestrian, cfg.BaseSNRdB, seed)
	}
	want := tb.gnb.AddUE(factory, -1)

	type key struct {
		slot int
		rnti uint16
	}
	gt := make(map[key]ran.UCIGT)
	seen := make(map[key]UCIReport)
	discovered := -1
	for i := 0; i < 2000; i++ {
		out := tb.gnb.Step()
		res := tb.scope.ProcessSlot(tb.rx.Capture(out.SlotIdx, out.Ref, out.Grid))
		for _, r := range res.NewUEs {
			if r == want {
				discovered = res.SlotIdx
			}
		}
		ulCap := ulRX.Capture(out.SlotIdx, out.Ref, out.ULGrid)
		ulRes := tb.scope.ProcessUplinkSlot(ulCap)
		for _, g := range out.UCIGT {
			if discovered >= 0 && g.SlotIdx > discovered {
				gt[key{g.SlotIdx, g.RNTI}] = g
			}
		}
		for _, r := range ulRes.Reports {
			seen[key{r.SlotIdx, r.RNTI}] = r
		}
	}
	if discovered < 0 {
		t.Fatal("UE never discovered")
	}
	if len(gt) < 50 {
		t.Fatalf("only %d UCI ground-truth reports", len(gt))
	}
	matched, sr, acks := 0, 0, 0
	for k, g := range gt {
		r, ok := seen[k]
		if !ok {
			continue
		}
		matched++
		if r.UCI != g.UCI {
			t.Fatalf("UCI mismatch at %+v: scope %+v, GT %+v", k, r.UCI, g.UCI)
		}
		if g.UCI.SR {
			sr++
		}
		if g.UCI.HasAck {
			acks++
		}
	}
	if float64(matched) < 0.95*float64(len(gt)) {
		t.Errorf("decoded %d/%d UCI reports at 25 dB", matched, len(gt))
	}
	if sr == 0 {
		t.Error("no scheduling requests observed despite UL traffic")
	}
	if acks == 0 {
		t.Error("no HARQ feedback observed despite DL traffic")
	}
}

// TestUCICQIFollowsChannel checks the decoded CQI stream tracks the
// UE's channel quality ordering.
func TestUCICQIFollowsChannel(t *testing.T) {
	meanCQI := func(model channel.Model) float64 {
		cfg := amari()
		cfg.Seed = 321
		tb := newTestbed(t, cfg, 25)
		ulRX := radio.NewReceiver(channel.Normal, 25, 77)
		factory := func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
			return traffic.NewBulk(3000), nil, channel.New(model, cfg.BaseSNRdB, seed)
		}
		tb.gnb.AddUE(factory, -1)
		var sum, n float64
		for i := 0; i < 1500; i++ {
			out := tb.gnb.Step()
			tb.scope.ProcessSlot(tb.rx.Capture(out.SlotIdx, out.Ref, out.Grid))
			ulRes := tb.scope.ProcessUplinkSlot(ulRX.Capture(out.SlotIdx, out.Ref, out.ULGrid))
			for _, r := range ulRes.Reports {
				sum += float64(r.UCI.CQI)
				n++
			}
		}
		if n == 0 {
			t.Fatal("no CQI reports decoded")
		}
		return sum / n
	}
	good := meanCQI(channel.Normal)
	bad := meanCQI(channel.Urban)
	if bad >= good {
		t.Errorf("Urban mean CQI %.1f not below Normal %.1f", bad, good)
	}
}

func TestProcessUplinkSlotNoUEs(t *testing.T) {
	s := New(1)
	res := s.ProcessUplinkSlot(&radio.Capture{SlotIdx: 5})
	if len(res.Reports) != 0 || res.SlotIdx != 5 {
		t.Errorf("unexpected result: %+v", res)
	}
}

// TestUplinkZeroAllocWarm: once the scope tracks its UEs, the per-UE
// decode loop allocates nothing, and ProcessUplinkSlot allocates only
// its result and the report list, sized once to the tracked count.
func TestUplinkZeroAllocWarm(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg := amari()
	tb := newTestbed(t, cfg, 25)
	ulRX := radio.NewReceiver(channel.Normal, 25, cfg.Seed^0xBEE)
	factory := func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewVideo(30, 15000, 0.2, cfg.TTI(), seed),
			traffic.NewCBR(300e3, cfg.TTI()),
			channel.New(channel.Normal, cfg.BaseSNRdB, seed)
	}
	const ues = 4
	for i := 0; i < ues; i++ {
		tb.gnb.AddUE(factory, -1)
	}
	var cap *radio.Capture
	for i := 0; i < 4000 && cap == nil; i++ {
		out := tb.gnb.Step()
		tb.scope.ProcessSlot(tb.rx.Capture(out.SlotIdx, out.Ref, out.Grid))
		if len(tb.scope.tracks) == ues && len(out.UCIGT) >= 2 {
			cap = ulRX.Capture(out.SlotIdx, out.Ref, out.ULGrid)
		}
	}
	if cap == nil {
		t.Fatal("no uplink slot with reports after every UE was tracked")
	}
	dst := tb.scope.decodeUplink(make([]UCIReport, 0, ues), cap)
	if len(dst) < 2 {
		t.Fatalf("decoded %d reports, want >= 2", len(dst))
	}
	if n := testing.AllocsPerRun(100, func() {
		dst = tb.scope.decodeUplink(dst[:0], cap)
	}); n != 0 {
		t.Errorf("decodeUplink: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		tb.scope.ProcessUplinkSlot(cap)
	}); n > 2 {
		t.Errorf("ProcessUplinkSlot: %.1f allocs/op, want <= 2", n)
	}
}
