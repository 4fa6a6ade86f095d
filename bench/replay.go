package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"nrscope/internal/core"
	"nrscope/internal/pucch"
	"nrscope/internal/telemetry"
)

const (
	// minPasses is the least number of replays of a recording: fewer
	// and a disturbed stretch of the run cannot be voted out.
	minPasses = 3
	// warmReplay is how many slots set-up runs through a throwaway
	// scope, so code and pools are warm before the first timed pass.
	warmReplay   = 200
	slotSetupRep = 3
	// uplinkDLSlots is how much of the downlink carrier an uplink
	// recording keeps.
	uplinkDLSlots = 400
	ttiUs         = 500.0
)

// slotWorkload replays a recorded cell through core.Scope, timing one
// public call per slot. Every pass is a fresh scope in one goroutine
// that sees the whole recording in order, as fast as the calls return.
type slotWorkload struct {
	name   string
	nUE    int
	slots  int  // recording length
	uplink bool // time ProcessUplinkSlot on uplink captures instead of ProcessSlot
}

// recording is what the load generator produced, held in memory; the
// scope only ever sees its captures.
type recording struct {
	cellID uint16
	nUE    int
	slots  []slotRec
	digest uint64
}

// record fills rec (reusing its storage) with the first len(rec.slots)
// slots of the seeded cell and returns the generator that made them.
func record(rec *recording, seed int64, nUE, dlSlots int, wantUL bool) (*cellSource, error) {
	src, err := newCellSource(seed, nUE)
	if err != nil {
		return nil, err
	}
	src.dlSlots, src.ulOff = dlSlots, !wantUL
	src.fill(rec.slots)
	rec.cellID, rec.nUE, rec.digest = src.cfg.CellID, nUE, src.digest()
	return src, nil
}

func (w slotWorkload) setup(rec *recording, seed int64) error {
	dlSlots := -1
	if w.uplink {
		// The uplink replay reads the downlink only until the UEs are
		// known; a pass fails if that takes longer than this.
		dlSlots = uplinkDLSlots
	}
	if _, err := record(rec, seed, w.nUE, dlSlots, w.uplink); err != nil {
		return err
	}
	sc := core.New(rec.cellID)
	for i := range rec.slots[:min(warmReplay, len(rec.slots))] {
		sc.ProcessSlot(&rec.slots[i].DL)
		if w.uplink {
			sc.ProcessUplinkSlot(&rec.slots[i].UL)
		}
	}
	return nil
}

// passResult is one replay of the recording.
type passResult struct {
	times     []float64 // µs per operation, steady operations only, in recording order
	steadyAt  int       // index of the first slot at which every UE was known
	callNs    int64     // summed time of the steady operations
	mallocs   uint64    // over the steady part
	heapBytes uint64
	records   int // records (or UCI reports) the steady part returned
	attempted int
	failed    int
}

func (w slotWorkload) run(seed int64, seconds float64, tr *tracer) (*measured, error) {
	m := &measured{opName: "slot"}
	rec := &recording{slots: make([]slotRec, w.slots)}
	// The recording is most of a gigabyte of live heap; at the default
	// GC pacing the generator's garbage could pile up to as much again
	// before a collection. Collect early while generating.
	gcPercent := debug.SetGCPercent(20)
	for rep := 0; rep < slotSetupRep; rep++ {
		start := time.Now()
		if err := w.setup(rec, seed); err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
	}
	debug.SetGCPercent(gcPercent)

	root := tr.begin(w.name, -1, -1, -1)
	var passes []*passResult
	begin := time.Now()
	for len(passes) < minPasses || time.Since(begin).Seconds() < seconds {
		runtime.GC()
		pass, err := w.pass(rec, len(passes), root, tr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pass)
		if first := passes[0]; pass.records != first.records || len(pass.times) != len(first.times) {
			return nil, fmt.Errorf("%s: pass %d returned %d records over %d operations, pass 0 returned %d over %d: the replay does not repeat",
				w.name, len(passes)-1, pass.records, len(pass.times), first.records, len(first.times))
		}
	}
	tr.end(root)

	first := passes[0]
	if first.records == 0 {
		return nil, fmt.Errorf("%s: %d steady slots decoded to nothing", w.name, len(first.times))
	}
	times := make([][]float64, len(passes))
	var allocs, rates []float64
	nOps := float64(len(first.times))
	for p, pass := range passes {
		times[p] = pass.times
		allocs = append(allocs, float64(pass.mallocs)/nOps)
		rates = append(rates, nOps/(float64(pass.callNs)/1e9))
		m.passMeans = append(m.passMeans, mean(pass.times))
	}
	m.ops = bestOfPasses(times)
	// The fastest pass: what one caller gets through when the box is
	// left alone, stalls inside the calls included.
	m.throughput = slices.Max(rates)
	m.attempted, m.failed = first.attempted, first.failed
	m.detail = map[string]float64{
		"passes":            float64(len(passes)),
		"allocs_per_op":     median(allocs),
		"recorded_slots":    float64(len(rec.slots)),
		"steady_at":         float64(first.steadyAt),
		"records_per_op":    float64(first.records) / nOps,
		"heap_bytes_per_op": float64(first.heapBytes) / nOps,
		"over_tti_frac":     overTTIFrac(m.ops),
		"digest_low32":      float64(rec.digest & 0xFFFFFFFF),
	}
	return m, nil
}

// overTTIFrac is the share of slots that took longer than one TTI.
func overTTIFrac(us []float64) float64 {
	over := 0
	for _, v := range us {
		if v > ttiUs {
			over++
		}
	}
	return float64(over) / float64(len(us))
}

// pass replays the recording once through a fresh scope. Until every UE
// is known the slots are fed untimed; from there on each call is one
// operation.
func (w slotWorkload) pass(rec *recording, p, parent int, tr *tracer) (*passResult, error) {
	sc := core.New(rec.cellID) // no bus: the replay measures the scope alone
	res := &passResult{steadyAt: -1}
	for i := range rec.slots {
		if w.uplink && i >= uplinkDLSlots {
			break
		}
		if len(sc.KnownUEs()) == rec.nUE {
			res.steadyAt = i
			break
		}
		sc.ProcessSlot(&rec.slots[i].DL)
	}
	if res.steadyAt < 0 {
		return nil, fmt.Errorf("%s: scope knows %d of %d UEs after %d slots: the recording decodes to nothing useful",
			w.name, len(sc.KnownUEs()), rec.nUE, len(rec.slots))
	}
	steady := rec.slots[res.steadyAt:]
	res.times = make([]float64, 0, len(steady))
	// Sized up front so the harness's own bookkeeping stays out of the
	// allocation counts.
	recs := make([]telemetry.Record, 0, 12*len(steady))
	reports := make([]core.UCIReport, 0, 4*len(steady))
	var before, after runtime.MemStats
	span := tr.begin("pass", parent, p, -1)
	runtime.ReadMemStats(&before)
	for i := range steady {
		s := &steady[i]
		slot := tr.begin("slot", span, p, s.SlotIdx)
		if w.uplink {
			if s.UL.Grid != nil {
				call := tr.begin("core.ProcessUplinkSlot", slot, p, s.SlotIdx)
				t := time.Now()
				out := sc.ProcessUplinkSlot(&s.UL)
				d := time.Since(t)
				tr.end(call)
				res.times = append(res.times, float64(d)/1e3)
				res.callNs += int64(d)
				reports = append(reports, out.Reports...)
			}
		} else {
			call := tr.begin("core.ProcessSlot", slot, p, s.SlotIdx)
			t := time.Now()
			out := sc.ProcessSlot(&s.DL)
			d := time.Since(t)
			tr.end(call)
			// Slots without a downlink grid return at once; they keep
			// the scope's slot clock running but are not operations.
			if s.DL.Grid != nil {
				res.times = append(res.times, float64(d)/1e3)
				res.callNs += int64(d)
			}
			recs = append(recs, out.Records...)
		}
		tr.end(slot)
	}
	runtime.ReadMemStats(&after)
	tr.end(span)
	res.mallocs = after.Mallocs - before.Mallocs
	res.heapBytes = after.TotalAlloc - before.TotalAlloc
	res.records = len(recs) + len(reports)
	if p == 0 {
		if w.uplink {
			res.attempted, res.failed = checkUplink(steady, reports, sc.KnownUEs())
		} else {
			res.attempted, res.failed = checkDownlink(steady, recs)
		}
	}
	return res, nil
}

// dciKey identifies one transmission the way the paper matches srsRAN
// log lines to NR-Scope output (§5.2.1).
type dciKey struct {
	slot int
	rnti uint16
	dl   bool
	tbs  int
}

// checkDownlink counts, over steady slots, the cell's UE-specific DCIs
// and how many the scope got wrong: a DCI with no matching record is a
// miss, a record matching no DCI is a ghost. Both are failed
// operations; a faster decoder that trades either is not faster.
func checkDownlink(slots []slotRec, recs []telemetry.Record) (attempted, failed int) {
	want := make(map[dciKey]int)
	for i := range slots {
		for _, g := range slots[i].GT {
			if g.Common {
				continue
			}
			want[dciKey{g.SlotIdx, g.RNTI, g.Grant.Downlink, g.Grant.TBS}]++
			attempted++
		}
	}
	for _, r := range recs {
		if r.Common {
			continue
		}
		k := dciKey{r.SlotIdx, r.RNTI, r.Downlink, r.TBS}
		if want[k] > 0 {
			want[k]--
		} else {
			attempted++ // a ghost is an operation the scope invented
			failed++
		}
	}
	for _, missing := range want {
		failed += missing
	}
	return attempted, failed
}

type uciKey struct {
	slot int
	rnti uint16
}

// checkUplink counts the UCI reports tracked UEs sent and the ones the
// scope missed, got wrong or invented.
func checkUplink(slots []slotRec, reports []core.UCIReport, known []uint16) (attempted, failed int) {
	tracked := make(map[uint16]bool, len(known))
	for _, rnti := range known {
		tracked[rnti] = true
	}
	want := make(map[uciKey]pucch.UCI)
	for i := range slots {
		for _, u := range slots[i].UCI {
			if tracked[u.RNTI] {
				want[uciKey{u.SlotIdx, u.RNTI}] = u.UCI
				attempted++
			}
		}
	}
	for _, r := range reports {
		k := uciKey{r.SlotIdx, r.RNTI}
		sent, ok := want[k]
		switch {
		case !ok:
			attempted++
			failed++
		case sent != r.UCI:
			failed++
			delete(want, k)
		default:
			delete(want, k)
		}
	}
	return attempted, failed + len(want)
}
