package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/core"
	"nrscope/internal/history"
	"nrscope/internal/lake"
	"nrscope/internal/obs"
	"nrscope/internal/telemetry"
)

const (
	deliverSetupReps = 3
	// drainTimeout bounds the wait for the TCP client after the last
	// slot was published; records still missing then count as lost.
	drainTimeout = 3 * time.Second
)

// deliverWorkload publishes the records a dl16 recording decodes to,
// open loop at the cell's slot rate, into a bus with three subscribers
// and measures how long a record takes to reach a TCP client. The
// decode happens once, in set-up; no PHY code runs while delays are
// measured.
type deliverWorkload struct {
	slots int // length of the published recording; 2400 is 1.2 s of cell time, ~15 k records
}

// deliverRig is the published recording: the scope's records slot by
// slot, in cell order.
type deliverRig struct {
	cellID  uint16
	tti     time.Duration
	slots   [][]telemetry.Record
	records int
}

func setupDeliver(seed int64, nSlots int) (*deliverRig, error) {
	src, err := newCellSource(seed, 16)
	if err != nil {
		return nil, err
	}
	src.ulOff = true
	sc := core.New(src.cfg.CellID)
	chunk := make([]slotRec, 32)
	warm := 0
	for len(sc.KnownUEs()) != src.nUE {
		if warm >= 4000 {
			return nil, fmt.Errorf("deliver16: scope knows %d of %d UEs after %d slots", len(sc.KnownUEs()), src.nUE, warm)
		}
		src.fill(chunk)
		for i := range chunk {
			sc.ProcessSlot(&chunk[i].DL)
		}
		warm += len(chunk)
	}
	rig := &deliverRig{cellID: src.cfg.CellID, tti: src.cfg.TTI()}
	for len(rig.slots) < nSlots {
		src.fill(chunk)
		for i := range chunk {
			recs := sc.ProcessSlot(&chunk[i].DL).Records
			rig.slots = append(rig.slots, recs)
			rig.records += len(recs)
		}
	}
	if rig.records == 0 {
		return nil, fmt.Errorf("deliver16: %d slots decoded to no records", nSlots)
	}
	return rig, nil
}

// deliverPass is the outcome of publishing the recording once.
type deliverPass struct {
	delayUs []float64 // per record in publish order; NaN-free: lost records are counted, not timed
	lost    [3]int    // tcp client, jsonl, history
	lateUs  []float64 // how late each slot's publish started
	mallocs uint64
	rate    float64 // records per second at the client
}

type arrival struct {
	slot int
	rnti uint16
	tbs  int
	at   time.Time
}

func (w deliverWorkload) run(seed int64, seconds float64, tr *tracer) (*measured, error) {
	m := &measured{opName: "record"}
	var rig *deliverRig
	for rep := 0; rep < deliverSetupReps; rep++ {
		start := time.Now()
		r, err := setupDeliver(seed, w.slots)
		if err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
		rig = r
	}
	passLen := float64(w.slots)*rig.tti.Seconds() + 0.15
	passes := max(3, int(seconds/passLen))
	root := tr.begin("deliver16", -1, -1, -1)
	var delays [][]float64
	var allocs, rates, late []float64
	for p := 0; p < passes; p++ {
		runtime.GC()
		pass, err := rig.publish(p, root, tr)
		if err != nil {
			return nil, err
		}
		m.attempted += 3 * rig.records
		for _, n := range pass.lost {
			m.failed += n
		}
		if pass.lost[0] == 0 {
			delays = append(delays, pass.delayUs)
		}
		allocs = append(allocs, float64(pass.mallocs)/float64(rig.records))
		rates = append(rates, pass.rate)
		late = append(late, pass.lateUs...)
		m.passMeans = append(m.passMeans, mean(pass.delayUs))
	}
	tr.end(root)
	if m.failed > 0 {
		return nil, fmt.Errorf("deliver16: %d of %d deliveries lost under a paced load no sink should shed", m.failed, m.attempted)
	}
	m.ops = medianOfPasses(delays)
	m.throughput = median(rates)
	lateP99, err := percentile(sortedCopy(late), 99)
	if err != nil {
		return nil, err
	}
	m.detail = map[string]float64{
		"passes":                float64(passes),
		"records_per_pass":      float64(rig.records),
		"generator_late_us_p99": lateP99,
		"allocs_per_record":     median(allocs),
	}
	return m, nil
}

// publish runs one pass: a fresh bus with its three subscribers, the
// recording published slot k at t0 + k·TTI, and the wait for the sinks.
func (rig *deliverRig) publish(p, parent int, tr *tracer) (*deliverPass, error) {
	dir := filepath.Join(outDir, "tmp", fmt.Sprintf("deliver-%d", p))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := bus.New()
	// History keeps four 100 ms bins per series, so the 2 s recording
	// spills most of its bins to the lake while it is delivered.
	store := history.New(history.Config{BinWidth: 100 * time.Millisecond, Depth: 4})
	if err := store.AddCell(rig.cellID, rig.tti); err != nil {
		return nil, err
	}
	lk, err := lake.Open(filepath.Join(dir, "lake"), lake.Config{BinWidth: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	store.AttachLake(lk)
	if _, err := store.SubscribeTo(b, rig.cellID); err != nil {
		return nil, err
	}
	jsonl, err := bus.NewJSONLFileSink(filepath.Join(dir, "records.jsonl"), 0)
	if err != nil {
		return nil, err
	}
	if _, err := b.Subscribe("jsonl", bus.Block, jsonl); err != nil {
		return nil, err
	}
	srv, err := bus.NewTCPServer(b, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	client, err := telemetry.Dial(srv.Addr())
	if err != nil {
		return nil, err
	}
	for srv.Subscribers() == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	arrivals := make([]arrival, 0, rig.records)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for len(arrivals) < rig.records {
			rec, err := client.Next()
			if err != nil {
				return // closed after the drain timeout
			}
			arrivals = append(arrivals, arrival{rec.SlotIdx, rec.RNTI, rec.TBS, time.Now()})
		}
	}()
	gotAll := make(chan struct{})
	go func() { wg.Wait(); close(gotAll) }()

	pass := &deliverPass{}
	histBefore := obs.Snapshot()["nrscope_history_records_total"]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	span := tr.begin("pass", parent, p, -1)
	t0 := time.Now().Add(5 * time.Millisecond)
	for k, recs := range rig.slots {
		due := t0.Add(time.Duration(k) * rig.tti)
		waitUntil(due)
		start := time.Now()
		pass.lateUs = append(pass.lateUs, float64(start.Sub(due))/1e3)
		call := tr.begin("bus.Publish", span, p, k)
		for i := range recs {
			if err := b.Publish(recs[i]); err != nil {
				return nil, err
			}
		}
		tr.endCalls(call, len(recs))
	}
	select {
	case <-gotAll:
	case <-time.After(drainTimeout):
	}
	// Close drains the Block subscribers in full before returning.
	if err := b.Close(); err != nil {
		return nil, err
	}
	tr.end(span)
	runtime.ReadMemStats(&after)
	pass.mallocs = after.Mallocs - before.Mallocs
	if err := srv.Close(); err != nil {
		return nil, err
	}
	client.Close()
	<-gotAll
	if err := lk.Close(); err != nil {
		return nil, err
	}

	pass.lost[1] = rig.records - int(jsonl.Count())
	pass.lost[2] = rig.records - int(obs.Snapshot()["nrscope_history_records_total"]-histBefore)
	// Walk the published order against the arrivals: TCP keeps order, so
	// a published record the next arrival does not match was dropped.
	pass.delayUs = make([]float64, 0, rig.records)
	next := 0
	for k, recs := range rig.slots {
		due := t0.Add(time.Duration(k) * rig.tti)
		for i := range recs {
			r := &recs[i]
			if next < len(arrivals) && arrivals[next].slot == r.SlotIdx && arrivals[next].rnti == r.RNTI && arrivals[next].tbs == r.TBS {
				pass.delayUs = append(pass.delayUs, float64(arrivals[next].at.Sub(due))/1e3)
				next++
			} else {
				pass.lost[0]++
			}
		}
	}
	if n := len(arrivals); n > 0 {
		pass.rate = float64(n) / arrivals[n-1].at.Sub(t0).Seconds()
	}
	return pass, nil
}

// waitUntil sleeps while t is far off and spins the last two
// milliseconds: a sleep overshoots by up to a millisecond on this box,
// twice the slot period, and the generator's lateness has to stay far
// below the delays it measures. One core spins; the sinks have the
// other.
func waitUntil(t time.Time) {
	for {
		left := time.Until(t)
		if left <= 0 {
			return
		}
		if left > 2*time.Millisecond {
			time.Sleep(left - 2*time.Millisecond)
		}
	}
}
