package eval

import (
	"fmt"
	"time"

	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/ran"
)

// Options scales an experiment. Zero values pick the figure's default
// (sized for minutes-equivalent runs; the paper used 10-minute captures).
type Options struct {
	// Slots caps the per-run TTI count (0 = figure default).
	Slots int
	// Seed varies the random universe (0 = default seed).
	Seed int64
	// Quick shrinks UE counts and sweeps for smoke tests.
	Quick bool
}

func (o Options) slots(def int) int {
	if o.Slots > 0 {
		return o.Slots
	}
	return def
}

func (o Options) seed(def int64) int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

// pick returns the quick or full variant of a sweep.
func pick[T any](o Options, quick, full []T) []T {
	if o.Quick {
		return quick
	}
	return full
}

// mustRun runs a session, panicking on configuration errors (the
// experiment definitions are static).
func mustRun(sc SessionConfig) *SessionResult {
	res, err := Run(sc)
	if err != nil {
		panic(fmt.Sprintf("eval: %v", err))
	}
	return res
}

// ueMix builds n identical UE specs.
func ueMix(n int, spec UESpec) []UESpec {
	out := make([]UESpec, n)
	for i := range out {
		out[i] = spec
	}
	return out
}

// Fig7a reproduces Fig. 7(a): DL/UL DCI miss rate on the srsRAN cell
// with 1-4 phone UEs.
func Fig7a(o Options) Figure {
	return figMissRate("fig7a", "DCI miss rate, srsRAN cell", ran.SrsRANCell(),
		pick(o, []int{1, 2}, []int{1, 2, 3, 4}), o)
}

// Fig7b reproduces Fig. 7(b): the Amarisoft cell with 8-64 emulated UEs.
func Fig7b(o Options) Figure {
	return figMissRate("fig7b", "DCI miss rate, Amarisoft cell", ran.AmarisoftCell(),
		pick(o, []int{4, 8}, []int{8, 16, 32, 64}), o)
}

func figMissRate(id, title string, cell ran.CellConfig, counts []int, o Options) Figure {
	fig := Figure{ID: id, Title: title, XLabel: "UEs in RAN", YLabel: "miss rate"}
	var dlSeries, ulSeries Series
	dlSeries.Name = "DL DCI"
	ulSeries.Name = "UL DCI"
	for _, n := range counts {
		res := mustRun(SessionConfig{
			Cell: cell,
			// The scope's own reception fades (it is an indoor USRP, not
			// a cabled tap): misses happen during its dips, like the
			// paper's fraction-of-a-percent rates.
			ScopeModel: channel.Pedestrian,
			ScopeSNRdB: 16,
			UEs:        ueMix(n, UESpec{Model: channel.Pedestrian, DL: WorkloadVideo, ULbps: 300e3, SessionSlots: -1}),
			Slots:      o.slots(8000),
			Seed:       o.seed(100) + int64(n),
		})
		dl, ul, dlTot, ulTot := res.MissRates()
		dlSeries.X = append(dlSeries.X, float64(n))
		dlSeries.Y = append(dlSeries.Y, dl)
		ulSeries.X = append(ulSeries.X, float64(n))
		ulSeries.Y = append(ulSeries.Y, ul)
		fig.Note("%d UEs: DL miss %.4f (%d DCIs), UL miss %.4f (%d DCIs)", n, dl, dlTot, ul, ulTot)
	}
	fig.Series = append(fig.Series, dlSeries, ulSeries)
	return fig
}

// Fig8a reproduces Fig. 8(a): CCDF of per-TTI REG-count decoding error
// on the srsRAN cell.
func Fig8a(o Options) Figure {
	return figREGError("fig8a", "REG decoding error, srsRAN cell", ran.SrsRANCell(),
		pick(o, []int{1, 2}, []int{1, 2, 3, 4}), o)
}

// Fig8b reproduces Fig. 8(b) on the Amarisoft cell.
func Fig8b(o Options) Figure {
	return figREGError("fig8b", "REG decoding error, Amarisoft cell", ran.AmarisoftCell(),
		pick(o, []int{4, 8}, []int{8, 16, 32, 64}), o)
}

func figREGError(id, title string, cell ran.CellConfig, counts []int, o Options) Figure {
	fig := Figure{ID: id, Title: title, XLabel: "error in REG count per TTI", YLabel: "CCDF"}
	for _, n := range counts {
		res := mustRun(SessionConfig{
			Cell:       cell,
			ScopeModel: channel.Pedestrian,
			ScopeSNRdB: 16,
			UEs:        ueMix(n, UESpec{Model: channel.Pedestrian, DL: WorkloadVideo, ULbps: 300e3, SessionSlots: -1}),
			Slots:      o.slots(8000),
			Seed:       o.seed(200) + int64(n),
		})
		errs := res.REGErrors()
		fig.AddCDF(fmt.Sprintf("%d UEs", n), CCDF(errs, 40))
		zero := 0
		for _, e := range errs {
			if e == 0 {
				zero++
			}
		}
		fig.Note("%d UEs: mean REG error %.2f per TTI, zero-error fraction %.4f",
			n, Mean(errs), float64(zero)/float64(len(errs)))
	}
	return fig
}

// Fig9a reproduces Fig. 9(a): throughput-estimation error CCDF on the
// Mosolab small cell with 1-4 UEs.
func Fig9a(o Options) Figure {
	fig := Figure{ID: "fig9a", Title: "Throughput estimation error, Mosolab cell", XLabel: "error (kbps)", YLabel: "CCDF"}
	for _, n := range pick(o, []int{1, 2}, []int{1, 2, 3, 4}) {
		res := mustRun(SessionConfig{
			Cell:       ran.MosolabCell(),
			ScopeSNRdB: 18,
			UEs:        ueMix(n, UESpec{Model: channel.Normal, DL: WorkloadVideo, SessionSlots: -1}),
			Slots:      o.slots(10000),
			Seed:       o.seed(300) + int64(n),
		})
		errs, meanGT := res.ThroughputErrors()
		fig.AddCDF(fmt.Sprintf("%d UEs", n), CCDF(errs, 40))
		fig.Note("%d UEs: median %.2f kbps, p75 %.2f kbps, mean GT %.2f Mbps, rel err %.3f%%",
			n, Median(errs), Percentile(errs, 75), meanGT/1e6, 100*Mean(errs)*1e3/meanGT)
	}
	return fig
}

// Fig9b reproduces Fig. 9(b): the Amarisoft cell with 8-64 UEs.
func Fig9b(o Options) Figure {
	fig := Figure{ID: "fig9b", Title: "Throughput estimation error, Amarisoft cell", XLabel: "error (kbps)", YLabel: "CCDF"}
	for _, n := range pick(o, []int{4, 8}, []int{8, 16, 32, 64}) {
		res := mustRun(SessionConfig{
			Cell:       ran.AmarisoftCell(),
			ScopeSNRdB: 20,
			UEs:        ueMix(n, UESpec{Model: channel.Normal, DL: WorkloadVideo, SessionSlots: -1}),
			Slots:      o.slots(10000),
			Seed:       o.seed(400) + int64(n),
		})
		errs, meanGT := res.ThroughputErrors()
		fig.AddCDF(fmt.Sprintf("%d UEs", n), CCDF(errs, 40))
		fig.Note("%d UEs: median %.2f kbps, p95 %.2f kbps, mean GT %.2f Mbps",
			n, Median(errs), Percentile(errs, 95), meanGT/1e6)
	}
	return fig
}

// Fig9c reproduces Fig. 9(c): a single UE in the two T-Mobile cells
// under indoor/outdoor/moving conditions.
func Fig9c(o Options) Figure {
	fig := Figure{ID: "fig9c", Title: "Throughput estimation error, T-Mobile cells", XLabel: "error (kbps)", YLabel: "CCDF"}
	scenarios := []struct {
		name  string
		model channel.Model
	}{
		{"Indoor", channel.Normal},
		{"Outdoor", channel.Pedestrian},
		{"Moving", channel.Vehicle},
	}
	cells := pick(o, []int{1}, []int{1, 2})
	for _, cellN := range cells {
		for _, sc := range scenarios {
			res := mustRun(SessionConfig{
				Cell:       ran.TMobileCell(cellN),
				ScopeSNRdB: 15,
				UEs:        []UESpec{{Model: sc.model, DL: WorkloadVideo, SessionSlots: -1}},
				Slots:      o.slots(8000),
				Seed:       o.seed(500) + int64(cellN*10),
			})
			errs, meanGT := res.ThroughputErrors()
			fig.AddCDF(fmt.Sprintf("%s (%d)", sc.name, cellN), CCDF(errs, 40))
			fig.Note("cell %d %s: median %.2f kbps, mean GT %.2f Mbps", cellN, sc.name, Median(errs), meanGT/1e6)
		}
	}
	return fig
}

// Fig10 reproduces Fig. 10: the CCDF of UE active time in the commercial
// cells across times of day (population churn measurement).
func Fig10(o Options) Figure {
	fig := Figure{ID: "fig10", Title: "UE active time in T-Mobile cells", XLabel: "active time (s)", YLabel: "CCDF"}
	times := []struct {
		name string
		rate float64
	}{
		{"Morning", 1.2},
		{"Afternoon", 1.5},
		{"Night", 0.5},
	}
	cells := pick(o, []int{1}, []int{1, 2})
	for _, cellN := range cells {
		for _, tod := range times {
			cell := ran.TMobileCell(cellN)
			tti := cell.TTI()
			pop := ran.DefaultPopulation()
			pop.ArrivalsPerSecond = tod.rate
			if cellN == 2 {
				pop.ArrivalsPerSecond /= 3 // cell 2 sees 100-200 vs 400-600 UEs
			}
			res := mustRun(SessionConfig{
				Cell:       cell,
				ScopeSNRdB: 15,
				ScopeOpts:  []core.Option{core.WithIdleHorizon(2 * time.Second)},
				Population: &pop,
				Slots:      o.slots(60000), // 60 s at 1 ms TTI
				Seed:       o.seed(600) + int64(cellN),
			})
			var activeSecs []float64
			for _, a := range res.Scope.DepartedUEs() {
				activeSecs = append(activeSecs, float64(a.ActiveSlots())*tti.Seconds())
			}
			for _, rnti := range res.Scope.KnownUEs() {
				if tr := res.Scope.Track(rnti); tr != nil {
					activeSecs = append(activeSecs, float64(tr.LastSeen-tr.FirstSeen+1)*tti.Seconds())
				}
			}
			if len(activeSecs) == 0 {
				continue
			}
			fig.AddCDF(fmt.Sprintf("%s (%d)", tod.name, cellN), CCDF(activeSecs, 40))
			fig.Note("cell %d %s: %d sessions, p90 active %.1f s",
				cellN, tod.name, len(activeSecs), Percentile(activeSecs, 90))
		}
	}
	return fig
}

// Fig11 reproduces Fig. 11: the CDF of distinct scheduled UEs per second
// and per minute.
func Fig11(o Options) Figure {
	fig := Figure{ID: "fig11", Title: "Active UEs per second/minute", XLabel: "UE count", YLabel: "CDF"}
	for _, cellN := range pick(o, []int{1}, []int{1, 2}) {
		cell := ran.TMobileCell(cellN)
		tti := cell.TTI()
		pop := ran.DefaultPopulation()
		if cellN == 2 {
			pop.ArrivalsPerSecond /= 3
		}
		res := mustRun(SessionConfig{
			Cell:       cell,
			ScopeSNRdB: 15,
			Population: &pop,
			Slots:      o.slots(120000), // 2 min at 1 ms
			Seed:       o.seed(700) + int64(cellN),
		})
		slotsPerSec := int(time.Second / tti)
		perSecond := distinctPerBucket(res, slotsPerSec)
		perMinute := distinctPerBucket(res, 60*slotsPerSec)
		fig.AddCDF(fmt.Sprintf("Cell %d, 1 second", cellN), CDF(perSecond, 40))
		fig.AddCDF(fmt.Sprintf("Cell %d, 1 minute", cellN), CDF(perMinute, 40))
		fig.Note("cell %d: mean %.1f UEs/s, max %.0f UEs/min",
			cellN, Mean(perSecond), Percentile(perMinute, 100))
	}
	return fig
}

// distinctPerBucket counts distinct scheduled RNTIs per bucket of slots.
func distinctPerBucket(res *SessionResult, bucketSlots int) []float64 {
	buckets := make(map[int]map[uint16]bool)
	for _, rec := range res.Records {
		if rec.Common {
			continue
		}
		b := rec.SlotIdx / bucketSlots
		if buckets[b] == nil {
			buckets[b] = make(map[uint16]bool)
		}
		buckets[b][rec.RNTI] = true
	}
	var out []float64
	for _, m := range buckets {
		out = append(out, float64(len(m)))
	}
	return out
}
