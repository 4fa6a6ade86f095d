package eval

import (
	"time"

	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/pbecc"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/traffic"
)

// ExtSchedulers is an extension experiment beyond the paper: NR-Scope
// observes the same heterogeneous-UE workload under a round-robin and a
// proportional-fair downlink scheduler, entirely passively, and the
// per-UE throughput profile it reconstructs separates the two policies —
// RAN-aware designs can fingerprint a closed cell's scheduler from the
// air (§6 "RAN Aware Design for Closed RAN").
func ExtSchedulers(o Options) Figure {
	fig := Figure{ID: "ext-sched", Title: "Scheduler fingerprinting: RR vs PF (extension)", XLabel: "UE mean SNR (dB)", YLabel: "observed Mbit/s"}
	snrs := pick(o, []float64{12, 20}, []float64{10, 14, 18, 22})
	cell := ran.AmarisoftCell()
	for _, pf := range []bool{false, true} {
		name := "round-robin"
		if pf {
			name = "proportional-fair"
		}
		var specs []UESpec
		for _, snr := range snrs {
			// Saturating demand over a fading channel: the band is
			// contended every TTI, which is where RR and PF diverge.
			specs = append(specs, UESpec{Model: channel.Vehicle, SNRdB: snr, DL: WorkloadHeavy, SessionSlots: -1})
		}
		res := mustRun(SessionConfig{
			Cell:             cell,
			ScopeSNRdB:       25,
			UEs:              specs,
			ProportionalFair: pf,
			Slots:            o.slots(8000),
			Seed:             o.seed(1400),
		})
		// Observed throughput per UE from the scope's records alone.
		bits := make(map[uint16]float64)
		var maxSlot int
		for _, rec := range res.Records {
			if rec.Common || !rec.Downlink || rec.IsRetx {
				continue
			}
			bits[rec.RNTI] += float64(rec.TBS)
			if rec.SlotIdx > maxSlot {
				maxSlot = rec.SlotIdx
			}
		}
		dur := float64(maxSlot) * cell.TTI().Seconds()
		s := Series{Name: name}
		var rates []float64
		for i, rnti := range res.AddedRNTIs {
			rate := bits[rnti] / dur
			s.X = append(s.X, snrs[i])
			s.Y = append(s.Y, rate/1e6)
			rates = append(rates, rate)
		}
		fig.Series = append(fig.Series, s)
		fig.Note("%s: sum %.1f Mbps, Jain fairness %.3f", name, sum(rates)/1e6, jain(rates))
	}
	fig.Note("PF's opportunistic gain over RR on the identical fading workload is the passive fingerprint")
	return fig
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// jain computes Jain's fairness index: (Σx)² / (n·Σx²), 1 = equal.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s, sq float64
	for _, x := range xs {
		s += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return s * s / (float64(len(xs)) * sq)
}

// ExtCongestion runs the paper's §6 congestion-control use case end to
// end: a sender adapts its rate to NR-Scope's telemetry feed (PBE-CC
// style: allocation + fair-share spare capacity) against an end-to-end
// AIMD baseline that backs off on RTT inflation. A competing bulk UE
// occupies the middle third of the run, so available capacity drops and
// recovers; the telemetry sender tracks it directly, the baseline only
// via queue buildup.
func ExtCongestion(o Options) Figure {
	fig := Figure{ID: "ext-cc", Title: "Telemetry-driven congestion control vs AIMD (extension)", XLabel: "time (s)", YLabel: "Mbit/s"}
	slots := o.slots(12000)
	for _, kind := range []string{"nr-scope-telemetry", "aimd-delay"} {
		s, goodput, p95Delay := runCongestion(kind, slots, o.seed(1500))
		fig.Series = append(fig.Series, s)
		fig.Note("%s: mean goodput %.2f Mbps, p95 queue delay %.1f ms", kind, goodput/1e6, p95Delay*1e3)
	}
	fig.Note("competitor occupies the middle third; telemetry tracks the capacity swing, AIMD pays in queue delay")
	return fig
}

// runCongestion executes one closed-loop run and returns the delivered
// rate series, mean goodput and p95 queueing delay.
func runCongestion(kind string, slots int, seed int64) (Series, float64, float64) {
	cell := ran.AmarisoftCell()
	cell.Seed = seed
	gnb, err := ran.NewGNB(cell, slots+1)
	if err != nil {
		panic(err)
	}
	tti := cell.TTI()
	var sender *traffic.Dynamic
	factory := func(rnti uint16, s int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		sender = traffic.NewDynamic(2e6, tti)
		return sender, nil, channel.New(channel.Normal, cell.BaseSNRdB, s)
	}
	target := gnb.AddUE(factory, -1)
	rx := radio.NewReceiver(channel.Normal, 25, seed^0xACE).Reuse(true)
	scope := core.New(cell.CellID)

	tel := pbecc.NewTelemetry(target, tti.Seconds())
	rttSlots := int(40 * time.Millisecond / tti)
	aimd := pbecc.NewAIMD(2e6, rttSlots)
	dutyCycle := cell.TDD.DownlinkDutyCycle()

	// One-RTT-delayed queue-delay samples for the end-to-end baseline.
	delayRing := make([]float64, rttSlots+1)

	series := Series{Name: kind}
	var delays []float64
	competitorAdded := false
	for i := 0; i < slots; i++ {
		if !competitorAdded && i == slots/3 {
			gnb.AddUE(func(rnti uint16, s int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
				return traffic.NewBulk(20000), nil, channel.New(channel.Normal, cell.BaseSNRdB, s)
			}, slots/3)
			competitorAdded = true
		}
		out := gnb.Step()
		res := scope.ProcessSlot(rx.Capture(out.SlotIdx, out.Ref, out.Grid))

		ue := gnb.UE(target)
		served := ue.Ledger.WindowBitrate(out.SlotIdx-200, out.SlotIdx)
		capEst := served
		if capEst < 1e6 {
			capEst = 1e6
		}
		qDelay := float64(ue.DLQueueBits()) / capEst
		delays = append(delays, qDelay)
		delayRing[out.SlotIdx%len(delayRing)] = qDelay

		switch kind {
		case "nr-scope-telemetry":
			for _, rec := range res.Records {
				tel.OnRecord(rec)
			}
			if res.Spare != nil {
				tel.OnSpare(spareBits(res.Spare, target) / tti.Seconds() * dutyCycle)
			}
			tel.OnIdle(out.SlotIdx)
			sender.SetRate(tel.Rate())
		case "aimd-delay":
			lagged := delayRing[(out.SlotIdx+1)%len(delayRing)] // ~one RTT old
			aimd.OnSlot(lagged)
			sender.SetRate(aimd.Rate())
		}

		if out.SlotIdx%400 == 0 && out.SlotIdx > 400 {
			appendXY(&series, float64(out.SlotIdx)*tti.Seconds(), served/1e6)
		}
	}
	ue := gnb.UE(target)
	goodput := float64(ue.Ledger.TotalBytes()) * 8 / (float64(slots) * tti.Seconds())
	return series, goodput, Percentile(delays, 95)
}
