package eval

import (
	"fmt"

	"nrscope/internal/channel"
	"nrscope/internal/ran"
	"nrscope/internal/traffic"
)

// Fig12 reproduces Fig. 12: per-slot processing time against the number
// of tracked UEs, one series each for the 20 MHz Amarisoft cell and the
// 10 MHz T-Mobile cell. The wall-clock numbers are the real compute cost
// of this implementation; the paper's claim under test is the
// O(n log n + m) shape — a bandwidth-dependent base plus a term in UEs.
// The paper's second curve shards the UE list over four DCI threads;
// here each candidate position is decoded once whatever the UE count, so
// there is no per-UE work to shard and no thread series.
func Fig12(o Options) Figure {
	fig := Figure{ID: "fig12", Title: "Processing time vs tracked UEs", XLabel: "UEs", YLabel: "us per slot"}
	counts := pick(o, []int{1, 4, 16}, []int{1, 2, 4, 8, 16, 32, 64, 128})
	cells := []struct {
		name string
		cell ran.CellConfig
	}{
		{"Amarisoft 20MHz", ran.AmarisoftCell()},
		{"T-Mobile 10MHz", ran.TMobileCell(1)},
	}
	for _, c := range cells {
		s := Series{Name: c.name}
		for _, n := range counts {
			us := measureProcessing(c.cell, n, o)
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, us)
			fig.Note("%s, %d UEs: %.1f us/slot", c.name, n, us)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// measureProcessing returns the mean decode time per downlink slot (us)
// once n UEs are tracked.
func measureProcessing(cell ran.CellConfig, n int, o Options) float64 {
	warmup := o.slots(3000)
	measure := warmup / 2
	res := mustRun(SessionConfig{
		Cell:       cell,
		ScopeSNRdB: 20,
		UEs:        ueMix(n, UESpec{Model: channel.Normal, DL: WorkloadLight, ULbps: 100e3, SessionSlots: -1}),
		Slots:      warmup + measure,
		Seed:       o.seed(800) + int64(n*10+1),
	})
	// Use only the tail, once discovery settled, and take the median —
	// GC pauses and scheduler preemption contaminate a mean.
	tail := res.Elapsed
	if len(tail) > measure {
		tail = tail[len(tail)-measure:]
	}
	if len(tail) == 0 {
		return 0
	}
	us := make([]float64, len(tail))
	for i, d := range tail {
		us[i] = float64(d.Microseconds())
	}
	return Median(us)
}

// Fig13 reproduces Fig. 13: DCI miss rate across receiver positions on
// the lab floor — position maps to distance, distance to SNR through the
// indoor path-loss model, and the miss rate follows signal quality.
func Fig13(o Options) Figure {
	fig := Figure{ID: "fig13", Title: "DCI miss rate across the floor", XLabel: "distance from gNB (m)", YLabel: "miss rate"}
	pl := channel.DefaultIndoor()
	// A low-power indoor small cell and a modest USRP front end: the far
	// corner of the floor sits near the QPSK decode threshold, which is
	// where the paper's Fig. 13 misses appear.
	const txPowerDBm, noiseFloorDBm = -5, -85
	distances := pick(o, []float64{2, 16}, []float64{1, 2, 4, 8, 12, 16, 20})
	nUEs := 8
	if o.Quick {
		nUEs = 4
	}
	dl := Series{Name: "DL DCI"}
	ul := Series{Name: "UL DCI"}
	for _, d := range distances {
		snr := pl.SNRAt(d, txPowerDBm, noiseFloorDBm)
		res := mustRun(SessionConfig{
			Cell:       ran.AmarisoftCell(),
			ScopeSNRdB: snr,
			UEs:        ueMix(nUEs, UESpec{Model: channel.Normal, DL: WorkloadVideo, ULbps: 300e3, SessionSlots: -1}),
			Slots:      o.slots(6000),
			Seed:       o.seed(900) + int64(d),
		})
		dlMiss, ulMiss, _, _ := res.MissRates()
		dl.X = append(dl.X, d)
		dl.Y = append(dl.Y, dlMiss)
		ul.X = append(ul.X, d)
		ul.Y = append(ul.Y, ulMiss)
		fig.Note("%.0f m (scope SNR %.1f dB): DL miss %.4f, UL miss %.4f", d, snr, dlMiss, ulMiss)
	}
	fig.Series = append(fig.Series, dl, ul)
	return fig
}

// Fig14 reproduces Fig. 14: spare-capacity estimation with two UEs on
// the Mosolab cell — per-UE bitrate (scope vs tcpdump-equivalent ledger)
// plus the fair-share spare bitrate (a), and used vs spare REs per TTI (b).
func Fig14(o Options) Figure {
	fig := Figure{ID: "fig14", Title: "Spare capacity estimation, 2 UEs", XLabel: "time (s)", YLabel: "Mbit/s"}
	cell := ran.MosolabCell()
	res := mustRun(SessionConfig{
		Cell:        cell,
		ScopeSNRdB:  18,
		UEs:         ueMix(2, UESpec{Model: channel.Normal, DL: WorkloadVideo, SessionSlots: -1}),
		Slots:       o.slots(20000),
		SampleEvery: 200,
		Seed:        o.seed(1000),
	})
	tti := cell.TTI().Seconds()
	series := make(map[string]*Series)
	get := func(name string) *Series {
		if series[name] == nil {
			series[name] = &Series{Name: name}
		}
		return series[name]
	}
	order := []string{}
	for i, rnti := range res.AddedRNTIs {
		for _, tag := range []string{"NR-Scope", "tcpdump", "Spare"} {
			order = append(order, fmt.Sprintf("UE%d %s", i+1, tag))
		}
		_ = rnti
	}
	for _, s := range res.Bitrates {
		idx := indexOf(res.AddedRNTIs, s.RNTI)
		if idx < 0 {
			continue
		}
		t := float64(s.SlotIdx) * tti
		appendXY(get(fmt.Sprintf("UE%d NR-Scope", idx+1)), t, s.EstBps/1e6)
		appendXY(get(fmt.Sprintf("UE%d tcpdump", idx+1)), t, s.GTBps/1e6)
		appendXY(get(fmt.Sprintf("UE%d Spare", idx+1)), t, s.SpareBps/1e6)
	}
	for _, name := range order {
		if s := series[name]; s != nil {
			fig.Series = append(fig.Series, *s)
		}
	}
	// Fig. 14(b): REs used vs spare per TTI (downsampled).
	used := Series{Name: "Used REs per TTI"}
	spare := Series{Name: "Spare REs per TTI"}
	step := len(res.Spares)/50 + 1
	for i := 0; i < len(res.Spares); i += step {
		sp := res.Spares[i]
		t := float64(sp.SlotIdx) * tti
		appendXY(&used, t, float64(sp.UsedREs))
		appendXY(&spare, t, float64(sp.TotalREs-sp.UsedREs))
	}
	fig.Series = append(fig.Series, used, spare)

	// Headline: estimation accuracy during the run.
	errs, meanGT := res.ThroughputErrors()
	fig.Note("per-sample throughput error: median %.2f kbps over mean GT %.2f Mbps", Median(errs), meanGT/1e6)
	return fig
}

func indexOf(xs []uint16, v uint16) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func appendXY(s *Series, x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Fig15 reproduces Fig. 15: MCS index CDF and retransmission-ratio CDF
// for UEs emulated with the Normal/AWGN/Pedestrian/Vehicle/Urban
// channels, plus the R² agreement between scope and ground truth.
func Fig15(o Options) Figure {
	fig := Figure{ID: "fig15", Title: "MCS and retransmission by channel", XLabel: "MCS index / retx ratio", YLabel: "CDF"}
	n := 16
	if o.Quick {
		n = 6
	}
	var gtMeanMCS, scMeanMCS []float64
	var gtRetxAll, scRetxAll []float64
	for _, model := range channel.Models {
		res := mustRun(SessionConfig{
			Cell:       ran.AmarisoftCell(),
			ScopeSNRdB: 22,
			UEs:        ueMix(n, UESpec{Model: model, DL: WorkloadBulk, SessionSlots: -1}),
			Slots:      o.slots(8000),
			Seed:       o.seed(1100) + int64(model),
		})
		_, scopeMCS := res.MCSSamples()
		fig.AddCDF("MCS "+model.String(), CDF(scopeMCS, 32))
		gtR, scR := res.RetxRatios()
		var ratios []float64
		for rnti, r := range scR {
			ratios = append(ratios, r)
			if gr, ok := gtR[rnti]; ok {
				gtRetxAll = append(gtRetxAll, gr)
				scRetxAll = append(scRetxAll, r)
			}
		}
		fig.AddCDF("Retx "+model.String(), CDF(ratios, 32))
		g, s := res.MeanMCSPerUE()
		gtMeanMCS = append(gtMeanMCS, g...)
		scMeanMCS = append(scMeanMCS, s...)
		fig.Note("%s: mean MCS %.1f, mean retx ratio %.3f", model, Mean(scopeMCS), Mean(ratios))
	}
	fig.Note("R^2 scope vs GT: MCS %.4f, retransmission ratio %.4f",
		RSquared(gtMeanMCS, scMeanMCS), RSquared(gtRetxAll, scRetxAll))
	return fig
}

// Fig16abc reproduces Fig. 16(a-c): throughput-error CCDFs with static,
// blocked, and moving UEs on the Mosolab cell.
func Fig16abc(o Options) Figure {
	fig := Figure{ID: "fig16abc", Title: "Throughput error by UE status, Mosolab cell", XLabel: "error (kbps)", YLabel: "CCDF"}
	scenarios := []struct {
		name  string
		model channel.Model
	}{
		{"Static", channel.Normal},
		{"Blocked", channel.Urban},
		{"Moving", channel.Vehicle},
	}
	for _, sc := range scenarios {
		for _, n := range pick(o, []int{1, 2}, []int{1, 2, 3, 4}) {
			res := mustRun(SessionConfig{
				Cell:       ran.MosolabCell(),
				ScopeSNRdB: 18,
				UEs:        ueMix(n, UESpec{Model: sc.model, DL: WorkloadVideo, SessionSlots: -1}),
				Slots:      o.slots(8000),
				Seed:       o.seed(1200) + int64(n),
			})
			errs, _ := res.ThroughputErrors()
			fig.AddCDF(fmt.Sprintf("%s %d UE", sc.name, n), CCDF(errs, 40))
			fig.Note("%s %d UEs: median err %.2f kbps", sc.name, n, Median(errs))
		}
	}
	return fig
}

// Fig16d reproduces Fig. 16(d): packets aggregated per TTI, for a UE
// alone in the cell (spare capacity) vs competing with others.
func Fig16d(o Options) Figure {
	fig := Figure{ID: "fig16d", Title: "Packet aggregation per TTI", XLabel: "packets per TTI", YLabel: "CDF"}
	run := func(name string, competitors int) {
		specs := []UESpec{{Model: channel.Normal, DL: WorkloadVideo, SessionSlots: -1}}
		specs = append(specs, ueMix(competitors, UESpec{Model: channel.Normal, DL: WorkloadBulk, SessionSlots: -1})...)
		res := mustRun(SessionConfig{
			Cell:       ran.MosolabCell(),
			ScopeSNRdB: 18,
			UEs:        specs,
			Slots:      o.slots(8000),
			Seed:       o.seed(1300) + int64(competitors),
		})
		ue := res.GNB.UE(res.AddedRNTIs[0])
		if ue == nil {
			return
		}
		var pkts []float64
		for _, p := range ue.Ledger.PacketsPerTTI() {
			pkts = append(pkts, float64(p))
		}
		fig.AddCDF(name, CDF(pkts, 24))
		fig.Note("%s: mean %.2f packets/TTI (MTU %d)", name, Mean(pkts), traffic.MTU)
	}
	// Competition must be heavy enough that the watched UE is sometimes
	// skipped for whole TTIs — that is what aggregates its packets.
	run("Spare", 0)
	run("With Competition", 9)
	return fig
}
