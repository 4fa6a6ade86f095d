package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"nrscope/internal/bits"
	"nrscope/internal/bus"
	"nrscope/internal/capfile"
	"nrscope/internal/convcode"
	"nrscope/internal/dci"
	"nrscope/internal/history"
	"nrscope/internal/lake"
	"nrscope/internal/modulation"
	"nrscope/internal/obs"
	"nrscope/internal/pdsch"
	"nrscope/internal/phy"
	"nrscope/internal/polar"
	"nrscope/internal/pucch"
	"nrscope/internal/pump"
	"nrscope/internal/shard"
	"nrscope/internal/telemetry"
)

// probeSlots is the length of the recording the probes harvest: long
// enough for a dozen steady-state PDSCH verifications, short enough that
// the probe phase stays a fraction of the run. Tests shorten it.
var probeSlots = 3000

const (
	// probeReps is how often each layer's harvested calls are timed; the
	// fastest repeat is the unit cost (see bestOfPasses).
	probeReps = 5
	// probeMinRun is the least time one timed repeat should take, so the
	// clock's resolution and the call to it vanish in the cost.
	probeMinRun = 2 * time.Millisecond
)

// prober times layers from outside, through their exported functions,
// on inputs harvested from a recording.
type prober struct {
	tr      *tracer
	parent  int
	metrics map[string]metric
	rows    []costRow
}

func (p *prober) set(name string, v float64, unit string) {
	p.metrics[name] = metric{v, unit}
}

// unitCost times run — which makes calls calls into one layer — and
// returns the fastest repeat's nanoseconds per call.
func (p *prober) unitCost(layer string, calls int, run func()) float64 {
	if calls == 0 {
		return 0
	}
	inner := 1
	best := math.Inf(1)
	for rep := 0; rep < probeReps; rep++ {
		id := p.tr.begin(layer, p.parent, rep, -1)
		t := time.Now()
		for k := 0; k < inner; k++ {
			run()
		}
		d := time.Since(t)
		p.tr.endCalls(id, calls*inner)
		if rep == 0 && d < probeMinRun {
			// The first repeat doubles as warm-up and calibration.
			inner = int(probeMinRun/max(d, time.Microsecond)) + 1
			continue
		}
		best = min(best, float64(d)/float64(calls*inner))
	}
	return best
}

// row adds a layer to the cost table.
func (p *prober) row(layer string, unitNs, perSlot float64) {
	p.rows = append(p.rows, costRow{Layer: layer, UnitNs: unitNs, PerSlot: perSlot, NsPerSlot: unitNs * perSlot})
}

// runProbes produces every per-layer metric that does not come from the
// workload's own run: a short recording at the workload's UE count is
// replayed for the scope's counters, harvested for each PHY layer's
// inputs, and its records feed the telemetry, bus and pump probes; a
// small metro stream feeds the storage probes.
func runProbes(seed int64, nUE int, tr *tracer) (map[string]metric, []costRow, error) {
	p := &prober{tr: tr, metrics: make(map[string]metric)}
	p.parent = tr.begin("probes", -1, -1, -1)
	defer tr.end(p.parent)

	runtime.GC() // the workload's recording is garbage by now; keep its sweep out of the timings
	rec := &recording{slots: make([]slotRec, probeSlots)}
	src, err := record(rec, seed, nUE, -1, true)
	if err != nil {
		return nil, nil, err
	}
	p.set("ran.step_us", float64(src.stepNs)/float64(probeSlots)/1e3, "us")
	p.set("radio.capture_us", float64(src.captureNs)/float64(max(src.captures, 1))/1e3, "us")

	slotMean, err := p.scopeCounters(rec)
	if err != nil {
		return nil, nil, err
	}
	h := harvestRecording(rec, src.cfg)
	if h.dlSlots == 0 || h.ussSlots == 0 || len(h.records) == 0 {
		return nil, nil, fmt.Errorf("probe recording has no steady slots to harvest")
	}
	p.downlinkLayers(h)
	p.uplinkLayers(h)
	p.telemetryLayers(h)
	attributed := 0.0
	for _, r := range p.rows {
		attributed += r.NsPerSlot
	}
	for i := range p.rows {
		p.rows[i].ShareOfSum = p.rows[i].NsPerSlot / attributed
	}
	p.set("core.attributed_frac", attributed/1e3/slotMean, "frac")
	if err := p.busLayer(h.records, src.cfg.TTI()); err != nil {
		return nil, nil, err
	}
	p.pumpLayers(h.records)
	if err := p.capfileLayer(rec); err != nil {
		return nil, nil, err
	}
	if err := p.storageLayers(seed); err != nil {
		return nil, nil, err
	}
	return p.metrics, p.rows, nil
}

// scopeCounters replays the probe recording through fresh scopes and
// reads the scope's own counters around the first pass. It returns the
// steady-state mean slot time in µs, the cost table's denominator.
func (p *prober) scopeCounters(rec *recording) (float64, error) {
	w := slotWorkload{name: "probe", nUE: rec.nUE, slots: len(rec.slots)}
	var passes [][]float64
	var first *passResult
	var counters map[string]float64
	var rates []float64
	for i := 0; i < minPasses; i++ {
		runtime.GC()
		before := obs.Snapshot()
		pass, err := w.pass(rec, i, p.parent, nil)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			first, counters = pass, obs.Delta(before, obs.Snapshot())
		}
		passes = append(passes, pass.times)
		rates = append(rates, float64(len(pass.times))/(float64(pass.callNs)/1e9))
	}
	ops := bestOfPasses(passes)
	n := float64(len(ops))
	// The counters cover the whole pass, acquisition included; the
	// handful of slots before every UE is known is a rounding error on
	// counts per slot.
	slots := counters["nrscope_scope_slots_processed_total"]
	attempted := counters["nrscope_scope_blind_candidates_attempted_total"]
	p.set("core.replay_slots_per_s", slices.Max(rates), "1/s")
	p.set("core.slots_over_tti_frac", overTTIFrac(ops), "frac")
	p.set("core.records_per_slot", float64(first.records)/n, "count")
	p.set("core.positions_per_slot", counters["nrscope_scope_blind_positions_decoded_total"]/slots, "count")
	p.set("core.candidates_attempted_per_slot", attempted/slots, "count")
	p.set("core.candidates_matched_frac", counters["nrscope_scope_blind_candidates_matched_total"]/max(attempted, 1), "frac")
	p.set("core.decode_failed_per_slot", counters["nrscope_scope_decode_failures_total"]/slots, "count")
	p.set("core.css_rnti_recovers_per_slot", counters["nrscope_scope_crnti_recoveries_total"]/slots, "count")
	p.set("core.allocs_per_slot", float64(first.mallocs)/n, "count")
	p.set("core.heap_bytes_per_slot", float64(first.heapBytes)/n, "B")
	p99, err := percentile(sortedCopy(ops), 99)
	if err != nil {
		return 0, err
	}
	p.set("core.slot_p99_us", p99, "us")
	return mean(ops), nil
}

// downlinkLayers times the layers under core.ProcessSlot.
func (p *prober) downlinkLayers(h *harvest) {
	slots := h.rec.slots
	dl, uss := float64(h.dlSlots), float64(h.ussSlots)

	var mask []bool
	occ := p.unitCost("pdcch.occupancy", len(h.occ), func() {
		for _, i := range h.occ {
			s := &slots[i]
			mask = h.codec.OccupiedCCEsInto(mask, s.DL.Grid, h.cell.Coreset0, s.DL.Ref.Slot)
		}
	})
	p.set("pdcch.occupancy_us", occ/1e3, "us")
	p.row("pdcch.occupancy", occ, 1)

	cands := append(append([]candInput(nil), h.css...), h.uss...)
	var block []uint8
	dec := p.unitCost("pdcch.decode_candidate", len(cands), func() {
		for _, c := range cands {
			s := &slots[c.slot]
			block, _ = h.codec.DecodeCandidateInto(block[:0], s.DL.Grid, c.cs, c.cand, s.DL.Ref.Slot, c.payloadBits, s.DL.N0)
		}
	})
	p.set("pdcch.decode_candidate_us", dec/1e3, "us")
	p.row("pdcch.decode_candidate", dec, float64(len(h.css))/dl+float64(len(h.uss))/uss)
	p.candidateSublayers(h, cands)

	rnti := p.unitCost("bits.recover_rnti", len(h.recover), func() {
		for _, b := range h.recover {
			bits.RecoverRNTI(b)
		}
	})
	p.set("bits.recover_rnti_ns", rnti, "ns")
	p.row("bits.recover_rnti", rnti, float64(len(h.recover))/dl)

	ueSS := phy.SearchSpace{ID: h.cell.Setup.CORESET.ID, Type: phy.UESearchSpace, Candidates: h.cell.Setup.UECandidates}
	var list []phy.Candidate
	sweep := p.unitCost("phy.slot_candidates", len(h.sweeps), func() {
		for _, in := range h.sweeps {
			list = phy.AppendSlotCandidates(list[:0], ueSS, h.cell.Setup.CORESET, in.rnti, in.refSlot)
		}
	})
	p.set("phy.slot_candidates_ns", sweep, "ns")
	p.row("phy.slot_candidates", sweep, float64(len(h.sweeps))/uss)

	match := p.unitCost("bits.match_dci_crc", len(h.matches), func() {
		for i := range h.matches {
			bits.MatchDCICRC(h.matches[i].block, h.matches[i].rnti)
		}
	})
	p.set("bits.match_dci_crc_ns", match, "ns")
	p.row("bits.match_dci_crc", match, float64(len(h.matches))/uss)

	grant := p.unitCost("dci.unpack_to_grant", len(h.grants), func() {
		for i := range h.grants {
			in := &h.grants[i]
			if d, err := dci.Unpack(in.payload, in.class, in.cfg); err == nil {
				dci.ToGrant(d, in.rnti, in.cfg, in.link)
			}
		}
	})
	p.set("dci.unpack_to_grant_ns", grant, "ns")
	p.row("dci.unpack_to_grant", grant, float64(len(h.grants))/uss)

	var tb []byte
	decodeAll := func(ins []pdschInput) func() {
		return func() {
			for _, in := range ins {
				s := &slots[in.slot]
				tb, _ = pdsch.DecodeInto(tb, s.DL.Grid, in.grant, h.rec.cellID, s.DL.N0)
			}
		}
	}
	all := p.unitCost("pdsch.decode", len(h.pdschAll), decodeAll(h.pdschAll))
	p.set("pdsch.decode_us", all/1e3, "us")
	// The table takes the steady-state verifications only: set-up's SIB1
	// and MSG4 decodes are not part of the per-slot cost.
	ready := p.unitCost("pdsch.decode", len(h.pdschReady), decodeAll(h.pdschReady))
	p.row("pdsch.decode", ready, float64(len(h.pdschReady))/dl)

	pbch := p.unitCost("pdsch.decode_pbch", len(h.pbch), func() {
		for _, i := range h.pbch {
			s := &slots[i]
			tb, _ = pdsch.DecodePBCHInto(tb, s.DL.Grid, h.rec.cellID, s.DL.N0)
		}
	})
	p.set("pdsch.decode_pbch_us", pbch/1e3, "us")

	// The Viterbi decoder at the two block lengths the scope feeds it: a
	// control-PDSCH transport block, and a UCI report.
	longK, longE := 256, 1920
	if len(h.pdschAll) > 0 {
		g := h.pdschAll[0].grant
		longK, longE = g.TBS, g.NBits
	}
	p.set("convcode.decode_long_us", p.viterbi("convcode.decode_long", longK, longE)/1e3, "us")
	p.set("convcode.decode_short_us", p.viterbi("convcode.decode_short", 22, 96)/1e3, "us")
}

// viterbi times convcode.Workspace on noisy codewords of k information
// bits rate-matched to e.
func (p *prober) viterbi(layer string, k, e int) float64 {
	rng := rand.New(rand.NewSource(int64(k)<<20 | int64(e)))
	const blocks = 16
	llrs := make([][]float64, blocks)
	for b := range llrs {
		info := make([]uint8, k)
		for i := range info {
			info[i] = uint8(rng.Intn(2))
		}
		coded, err := convcode.EncodeAndMatch(info, e)
		if err != nil {
			return 0
		}
		llrs[b] = make([]float64, len(coded))
		for i, bit := range coded {
			llrs[b][i] = 4*(1-2*float64(bit)) + rng.NormFloat64()
		}
	}
	var ws convcode.Workspace
	return p.unitCost(layer, blocks, func() {
		for _, llr := range llrs {
			ws.RecoverAndDecode(llr, k)
		}
	})
}

// candidateSublayers splits pdcch.DecodeCandidateInto into the layers
// it calls — demap, scrambling sequence, descramble, polar — on the
// same candidates.
func (p *prober) candidateSublayers(h *harvest, cands []candInput) {
	type llrBlock struct {
		code *polar.Code
		llr  []float64
	}
	var syms []complex128
	var n0s []float64
	var starts []int
	codes := make(map[[2]int]*polar.Code)
	var blocks []llrBlock
	for _, c := range cands {
		s := &h.rec.slots[c.slot]
		k, e := c.payloadBits+24, c.cand.AggLevel*phy.BitsPerCCE
		code := codes[[2]int{k, e}]
		if code == nil {
			var err error
			if code, err = polar.NewCode(k, e); err != nil {
				continue
			}
			codes[[2]int{k, e}] = code
		}
		starts = append(starts, len(syms))
		n0s = append(n0s, s.DL.N0)
		for _, re := range c.cs.CandidateDataREs(c.cand.StartCCE, c.cand.AggLevel) {
			syms = append(syms, s.DL.Grid.At(re.Symbol, re.Subcarrier))
		}
		blocks = append(blocks, llrBlock{code: code})
	}
	starts = append(starts, len(syms))
	if len(blocks) == 0 {
		return
	}
	var llr []float64
	demap := p.unitCost("modulation.demap_qpsk", len(syms), func() {
		for i := range blocks {
			llr = modulation.DemapInto(llr[:0], modulation.QPSK, syms[starts[i]:starts[i+1]], n0s[i])
		}
	})
	p.set("modulation.demap_qpsk_ns_per_sym", demap, "ns")

	seq := make([]uint8, 2*len(syms))
	cinit := bits.PDCCHScramblingInit(0, h.rec.cellID)
	gold := p.unitCost("bits.gold", len(seq), func() {
		for i := range blocks {
			bits.GoldSequenceInto(cinit, seq[2*starts[i]:2*starts[i+1]])
		}
	})
	p.set("bits.gold_ns_per_bit", gold, "ns")

	for i := range blocks {
		blocks[i].llr = modulation.DemapInto(nil, modulation.QPSK, syms[starts[i]:starts[i+1]], n0s[i])
	}
	// Descrambling flips signs in place, so every second repeat undoes
	// the first; the cost does not depend on the signs.
	desc := p.unitCost("bits.descramble", len(seq), func() {
		for i := range blocks {
			bits.DescrambleLLRInPlace(seq[2*starts[i]:2*starts[i+1]], blocks[i].llr)
		}
	})
	p.set("bits.descramble_ns_per_llr", desc, "ns")

	var out []uint8
	pol := p.unitCost("polar.decode", len(blocks), func() {
		for i := range blocks {
			out = blocks[i].code.DecodeInto(out[:0], blocks[i].llr)
		}
	})
	p.set("polar.decode_us", pol/1e3, "us")
}

// uplinkLayers times pucch.Decode on resources that carry a report and
// on resources the energy gate rejects.
func (p *prober) uplinkLayers(h *harvest) {
	decode := func(ins []pucchInput) func() {
		return func() {
			for _, in := range ins {
				pucch.Decode(in.cap.Grid, in.rnti, h.rec.cellID, in.cap.N0)
			}
		}
	}
	busy := p.unitCost("pucch.decode_active", len(h.pucchBusy), decode(h.pucchBusy))
	idle := p.unitCost("pucch.decode_idle", len(h.pucchEmpty), decode(h.pucchEmpty))
	p.set("pucch.decode_active_us", busy/1e3, "us")
	p.set("pucch.decode_idle_ns", idle, "ns")
	p.set("pucch.active_frac", float64(len(h.pucchBusy))/float64(max(h.ulSlots*h.rec.nUE, 1)), "frac")
}

// telemetryLayers times the record construction and the bitrate
// estimator the scope's merge step runs per decoded DCI.
func (p *prober) telemetryLayers(h *harvest) {
	perSlot := float64(len(h.found)) / float64(h.ussSlots)
	ref := phy.SlotRef{}
	from := p.unitCost("telemetry.from_grant", len(h.found), func() {
		for i := range h.found {
			telemetry.FromGrant(i, ref, h.found[i], false)
		}
	})
	p.set("telemetry.from_grant_ns", from, "ns")
	p.row("telemetry.from_grant", from, perSlot)

	est := telemetry.NewWindowEstimator(100*time.Millisecond, h.cell.TTI())
	add := p.unitCost("telemetry.estimator_add", len(h.records), func() {
		for i := range h.records {
			est.Add(h.records[i])
		}
	})
	p.set("telemetry.estimator_add_ns", add, "ns")
	p.row("telemetry.estimator_add", add, perSlot)
}

// busLayer measures the bus twice: Publish under three subscribers as
// fast as it returns, and a paced publish (one slot's records per TTI)
// for the batching behaviour a delivery delay is made of.
func (p *prober) busLayer(records []telemetry.Record, tti time.Duration) error {
	discard := bus.SinkFunc(func([]telemetry.Record) error { return nil })
	b := bus.New()
	for _, name := range []string{"probe-a", "probe-b", "probe-c"} {
		// Deep queues: the cost of Publish, not of waiting for a sink.
		if _, err := b.Subscribe(name, bus.Block, discard, bus.WithQueueSize(1<<16)); err != nil {
			return err
		}
	}
	n := min(len(records), 1<<15)
	pub := p.unitCost("bus.publish", n, func() {
		for i := range records[:n] {
			_ = b.Publish(records[i])
		}
	})
	if err := b.Close(); err != nil {
		return err
	}
	p.set("bus.publish_ns", pub, "ns")

	// Paced: group the records by slot and publish slot k at t0 + k·TTI.
	var mu sync.Mutex
	var batches []int
	var waitMs []float64
	published := make([]time.Time, 0, len(records))
	seen := 0
	b = bus.New()
	sub, err := b.Subscribe("probe-paced", bus.Block, bus.SinkFunc(func(recs []telemetry.Record) error {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		batches = append(batches, len(recs))
		for range recs {
			waitMs = append(waitMs, float64(now.Sub(published[seen]))/1e6)
			seen++
		}
		return nil
	}))
	if err != nil {
		return err
	}
	var late []float64
	span := p.tr.begin("bus.paced", p.parent, -1, -1)
	t0 := time.Now().Add(2 * time.Millisecond)
	k := 0
	for i := 0; i < len(records) && k < 1500; k++ {
		due := t0.Add(time.Duration(k) * tti)
		waitUntil(due)
		late = append(late, float64(time.Since(due))/1e3)
		for slot := records[i].SlotIdx; i < len(records) && records[i].SlotIdx == slot; i++ {
			mu.Lock()
			published = append(published, time.Now())
			mu.Unlock()
			_ = b.Publish(records[i])
		}
	}
	if err := b.Close(); err != nil {
		return err
	}
	p.tr.endCalls(span, len(published))
	total := 0
	for _, n := range batches {
		total += n
	}
	p.set("bus.batch_records_mean", float64(total)/float64(max(len(batches), 1)), "count")
	p.set("bus.queue_to_sink_ms_p50", median(waitMs), "ms")
	p.set("bus.dropped", float64(sub.Dropped()), "count")
	lateP99, err := percentile(sortedCopy(late), 99)
	if err != nil {
		return err
	}
	p.set("bench.generator_late_us_p99", lateP99, "us")
	return nil
}

// pumpLayers times the three export encoders, Append per record plus
// the Frame that closes a batch of 512.
func (p *prober) pumpLayers(records []telemetry.Record) {
	n := min(len(records), 4096)
	for _, enc := range []pump.Encoder{&pump.Influx{}, &pump.PromRW{}, &pump.OTLP{}} {
		cost := p.unitCost("pump."+enc.Kind(), n, func() {
			enc.Reset()
			for i := range records[:n] {
				enc.Append(&records[i])
				if enc.Records() == 512 {
					enc.Frame()
					enc.Reset()
				}
			}
			enc.Frame()
		})
		p.set("pump."+enc.Kind()+"_ns_per_record", cost, "ns")
	}
}

// capfileLayer times reading captures back from the .nrsc format.
func (p *prober) capfileLayer(rec *recording) error {
	var buf bytes.Buffer
	var grid *phy.Grid
	for i := range rec.slots {
		if grid = rec.slots[i].DL.Grid; grid != nil {
			break
		}
	}
	w, err := capfile.NewWriter(&buf, capfile.Header{CellID: rec.cellID, Mu: phy.Mu1, NumPRB: grid.NumPRB})
	if err != nil {
		return err
	}
	const n = 64
	for i := range rec.slots[:n] {
		if err := w.Append(&rec.slots[i].DL); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	data := buf.Bytes()
	var readErr error
	cost := p.unitCost("capfile.read", n, func() {
		r, err := capfile.NewReader(bytes.NewReader(data))
		if err != nil {
			readErr = err
			return
		}
		for i := 0; i < n; i++ {
			if _, err := r.Next(); err != nil {
				readErr = err
				return
			}
		}
	})
	p.set("capfile.read_us_per_slot", cost/1e3, "us")
	return readErr
}

// storageLayers times history, lake and shard on a small metro stream
// (8 cells × 256 UEs), one layer at a time.
func (p *prober) storageLayers(seed int64) error {
	const cells, slots = 8, 1600
	load, err := shard.NewMetroLoad(cells, metroUEs, phy.Mu1, seed)
	if err != nil {
		return err
	}
	var items []metroItem
	for slot := 0; slot < slots; slot++ {
		load.Slot(slot, func(cell uint16, rec telemetry.Record) { items = append(items, metroItem{cell, rec}) })
	}
	tti := phy.Mu1.SlotDuration()
	cfg := history.Config{BinWidth: metroBin, Depth: metroDepth, MaxUEs: cells * metroUEs}

	// history: ingest without a lake, then its footprint and its reads.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // pools emptied by the first cycle are freed by the second
	runtime.ReadMemStats(&before)
	store := history.New(cfg)
	for c := 1; c <= cells; c++ {
		if err := store.AddCell(uint16(c), tti); err != nil {
			return err
		}
	}
	rep := 0
	ingest := p.unitCost("history.ingest", len(items), func() {
		// Each repeat continues the stream in time, as a live feed does.
		offset := float64(rep*slots) * tti.Seconds() * 1e3
		for i := range items {
			rec := items[i].rec
			rec.TMs += offset
			store.Ingest(items[i].cell, rec)
		}
		rep++
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.set("history.ingest_ns", ingest, "ns")
	p.set("history.state_mb", float64(after.HeapAlloc-before.HeapAlloc)/(1<<20), "MB")
	endMs := store.LastMs()
	query := p.unitCost("history.query", cells*metroUEs, func() {
		for c := 1; c <= cells; c++ {
			for u := 0; u < metroUEs; u++ {
				store.Query(uint16(c), uint16(0x4601+u), endMs-metroDepth*metroBinMs/2, 0, 1)
			}
		}
	})
	p.set("history.query_us", query/1e3, "us")
	topk := p.unitCost("history.topk", 4, func() {
		for i := 0; i < 4; i++ {
			store.TopK("dl_bits", 500*time.Millisecond, 10)
		}
	})
	p.set("history.topk_us", topk/1e3, "us")

	// lake: spill one bin per series per index, wait for the writer, read
	// every series back.
	dir := filepath.Join(outDir, "tmp", "probe-lake")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lk, err := lake.Open(dir, lake.Config{BinWidth: metroBin, QueueDepth: 1 << 16})
	if err != nil {
		return err
	}
	bin := history.Bin{DLBits: 48000, ULBits: 6000, Grants: 6, PRBs: 40, MCSSum: 96, MCSCount: 6, MCSMin: 12, MCSMax: 20}
	var idx int64
	const spillIdx = 8 // bin indices per repeat
	spill := p.unitCost("lake.spill_bin", spillIdx*cells*metroUEs, func() {
		for k := 0; k < spillIdx; k++ {
			for c := 1; c <= cells; c++ {
				for u := 0; u < metroUEs; u++ {
					lk.SpillBin(uint16(c), uint16(0x4601+u), false, idx, &bin)
				}
			}
			idx++
			if err := lk.Sync(); err != nil {
				return
			}
		}
	})
	stats := lk.Stats()
	p.set("lake.spill_bin_ns", spill, "ns")
	p.set("lake.spilled_bins", float64(stats.SpilledBins), "count")
	p.set("lake.bytes_per_bin", float64(stats.Bytes)/float64(max(stats.SpilledBins, 1)), "B")
	if stats.DroppedEntries != 0 {
		return fmt.Errorf("lake probe: %d bins shed with a ring deeper than the burst", stats.DroppedEntries)
	}
	read := p.unitCost("lake.read_series", cells*metroUEs, func() {
		for c := 1; c <= cells; c++ {
			for u := 0; u < metroUEs; u++ {
				_ = lk.ReadSeries(uint16(c), uint16(0x4601+u), false, 0, idx, func(int64, history.Bin) {})
			}
		}
	})
	p.set("lake.read_series_us", read/1e3, "us")
	if err := lk.Close(); err != nil {
		return err
	}

	// shard: the producer's side of Ingest, workers applying behind it.
	sup := shard.New(shard.Config{Shards: metroShards, Policy: shard.Block, History: cfg, StallTimeout: -1})
	for c := 1; c <= cells; c++ {
		if _, err := sup.AddCell(uint16(c), phy.Mu1); err != nil {
			return err
		}
	}
	if err := sup.Start(); err != nil {
		return err
	}
	rep = 0
	enqueue := p.unitCost("shard.enqueue", len(items), func() {
		offset := float64(rep*slots) * tti.Seconds() * 1e3
		for i := range items {
			rec := items[i].rec
			rec.TMs += offset
			_ = sup.Ingest(items[i].cell, rec)
		}
		sup.Flush()
		rep++
	})
	health := sup.Health()
	if err := sup.Close(); err != nil {
		return err
	}
	p.set("shard.enqueue_ns", enqueue, "ns")
	p.set("shard.applied_frac", float64(health.Applied)/float64(max(health.Ingested, 1)), "frac")
	p.set("shard.restarts", float64(health.Restarts), "count")
	return nil
}
