package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nrscope/internal/history"
	"nrscope/internal/lake"
	"nrscope/internal/phy"
	"nrscope/internal/shard"
	"nrscope/internal/telemetry"
)

const (
	metroCells  = 32
	metroUEs    = 256
	metroSlots  = 2000 // one second of metro time per replay of the recording
	metroShards = 2
	metroBin    = 100 * time.Millisecond
	metroBinMs  = 100.0
	metroDepth  = 8 // bins kept in RAM per series; older ones spill
	// Set-up is a tenth of a second, much of it waiting on the lakes'
	// first fsync, so it is repeated more often than the others'.
	metroSetupReps = 7
	// metroRepsPerSecond sizes the ingest from the requested run length:
	// replays of the recording per second of run. On the reference box a
	// replay takes ~85 ms, so ingest fills under half of the run and the
	// query passes spread over the rest.
	metroRepsPerSecond = 5
	// metroBlock is how many replays one timed ingest block holds: long
	// enough (~0.4 s) to average the lake writer's bursts, short enough
	// to fit between disturbances of the box. The reported rate is the
	// upper quartile of the blocks' rates — the box undisturbed, without
	// resting on the one luckiest block.
	metroBlock = 5
	// The query list: series queries are cheap (2–12 µs), so there are
	// thousands, and the percentiles rest on hundreds of samples each.
	metroUEQueries   = 4000
	metroCellQueries = 800
	metroRankings    = 20
)

// metroWorkload drives the storage side: a metro-scale record stream
// ingested through the shard supervisor into history partitions that
// spill to on-disk lakes, then a fixed list of queries over RAM-only,
// disk-only and straddling windows. No PHY code runs.
type metroWorkload struct{}

type metroItem struct {
	cell uint16
	rec  telemetry.Record
}

type seriesKey struct{ cell, rnti uint16 }

type metroRig struct {
	dir   string
	items []metroItem
	ttiMs float64
	sup   *shard.Supervisor
	lakes []*lake.Lake
}

func setupMetro(seed int64) (*metroRig, error) {
	load, err := shard.NewMetroLoad(metroCells, metroUEs, phy.Mu1, seed)
	if err != nil {
		return nil, err
	}
	rig := &metroRig{
		dir:   filepath.Join(outDir, "tmp", "metro"),
		ttiMs: phy.Mu1.SlotDuration().Seconds() * 1e3,
	}
	for slot := 0; slot < metroSlots; slot++ {
		load.Slot(slot, func(cell uint16, rec telemetry.Record) {
			rig.items = append(rig.items, metroItem{cell, rec})
		})
	}
	if err := os.RemoveAll(rig.dir); err != nil {
		return nil, err
	}
	rig.sup = shard.New(shard.Config{
		Shards: metroShards,
		Policy: shard.Block, // lossless: every record ingested must be applied
		History: history.Config{
			BinWidth: metroBin,
			Depth:    metroDepth,
			MaxUEs:   metroCells * metroUEs,
		},
		StallTimeout: -1, // a saturated apply loop is not a stall
	})
	err = rig.sup.AttachLakes(func(i int) (history.Lake, error) {
		// The spill ring absorbs bin rolls (every series of the partition
		// evicts one bin at once, 400 k bins/s at this ingest rate) while
		// the writer is held up; deep enough for ~0.6 s, or a hiccup of
		// the disk sheds bins and fails the run.
		lk, err := lake.Open(filepath.Join(rig.dir, fmt.Sprintf("lake-%d", i)),
			lake.Config{BinWidth: metroBin, QueueDepth: 1 << 18})
		if err != nil {
			return nil, err
		}
		rig.lakes = append(rig.lakes, lk)
		return lk, nil
	})
	if err != nil {
		return nil, err
	}
	if err := load.Register(rig.sup); err != nil {
		return nil, err
	}
	if err := rig.sup.Start(); err != nil {
		return nil, err
	}
	return rig, nil
}

func (rig *metroRig) close() error {
	err := rig.sup.Close()
	for _, lk := range rig.lakes {
		if cerr := lk.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(rig.dir); err == nil {
		err = rerr
	}
	return err
}

// at returns record i of the replayed stream: the recording repeated
// back to back, slot index and time advanced by one recording length
// per repeat, so bins keep rolling and spilling.
func (rig *metroRig) at(i int) (uint16, telemetry.Record) {
	it := &rig.items[i%len(rig.items)]
	rec := it.rec
	rep := i / len(rig.items)
	rec.SlotIdx += rep * metroSlots
	rec.TMs += float64(rep*metroSlots) * rig.ttiMs
	return it.cell, rec
}

// querySpan names the span around each kind of query.
var querySpan = map[string]string{"ue": "history.Query", "cell": "history.CellQuery", "topk": "shard.TopK"}

// metroQuery is one entry of the fixed query list.
type metroQuery struct {
	kind   string // "ue", "cell" or "topk"
	key    seriesKey
	fromMs float64
	toMs   float64
	metric string
}

func (metroWorkload) run(seed int64, seconds float64, tr *tracer) (*measured, error) {
	m := &measured{opName: "query"}
	var rig *metroRig
	for rep := 0; rep < metroSetupReps; rep++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		r, err := setupMetro(seed)
		if err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(start).Seconds())
		rig = r
	}
	defer rig.close()

	begin := time.Now()
	reps := max(metroDepth+2*metroBlock, int(seconds*metroRepsPerSecond)) / metroBlock * metroBlock
	total := reps * len(rig.items)
	root := tr.begin("metro", -1, -1, -1)
	runtime.GC()
	ingest := tr.begin("ingest", root, -1, -1)
	start := time.Now()
	var blockRates []float64
	perBlock := metroBlock * len(rig.items)
	for block := 0; block*perBlock < total; block++ {
		blockStart := time.Now()
		for i := block * perBlock; i < (block+1)*perBlock; i++ {
			cell, rec := rig.at(i)
			if err := rig.sup.Ingest(cell, rec); err != nil {
				return nil, err
			}
		}
		// Blocks before every ring is full spill nothing and run faster
		// than the steady state.
		if block*metroBlock > metroDepth {
			blockRates = append(blockRates, float64(perBlock)/time.Since(blockStart).Seconds())
		}
	}
	rig.sup.Flush()
	elapsed := time.Since(start)
	tr.endCalls(ingest, total)
	m.throughput = sortedCopy(blockRates)[len(blockRates)*3/4]
	for _, lk := range rig.lakes {
		if err := lk.Sync(); err != nil {
			return nil, err
		}
	}

	health := rig.sup.Health()
	m.attempted = total
	m.failed = total - int(health.Applied)
	var spilled, lakeBytes, lakeDropped int64
	for _, lk := range rig.lakes {
		st := lk.Stats()
		spilled += st.SpilledBins
		lakeBytes += st.Bytes
		lakeDropped += st.DroppedEntries
	}
	if m.failed != 0 || health.Dropped != 0 || health.Restarts != 0 || lakeDropped != 0 {
		return nil, fmt.Errorf("metro: ingested %d, applied %d, dropped %d, restarts %d, lake shed %d bins under the Block policy",
			total, health.Applied, health.Dropped, health.Restarts, lakeDropped)
	}

	endMs := float64((total-1)/len(rig.items)*metroSlots)*rig.ttiMs + rig.items[(total-1)%len(rig.items)].rec.TMs
	queries := metroQueryList(seed, endMs)
	truth := newMetroTruth(rig, total)
	var times [][]float64
	var allocs []float64
	var before, after runtime.MemStats
	for p := 0; p < minPasses || time.Since(begin).Seconds() < seconds; p++ {
		times = append(times, nil)
		runtime.GC()
		pass := tr.begin("pass", root, p, -1)
		runtime.ReadMemStats(&before)
		for qi, q := range queries {
			call := tr.begin(querySpan[q.kind], pass, p, qi)
			t := time.Now()
			samples, ranks, err := rig.query(q)
			d := time.Since(t)
			tr.end(call)
			if err != nil {
				return nil, fmt.Errorf("metro: query %d: %w", qi, err)
			}
			times[p] = append(times[p], float64(d)/1e3)
			if p == 0 {
				m.attempted++
				if err := truth.check(q, samples, ranks); err != nil {
					m.failed++
					fmt.Fprintf(os.Stderr, "metro: query %d (%+v): %v\n", qi, q, err)
				}
			}
		}
		runtime.ReadMemStats(&after)
		tr.end(pass)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(len(queries)))
		m.passMeans = append(m.passMeans, mean(times[p]))
	}
	tr.end(root)
	if m.failed != 0 {
		return nil, fmt.Errorf("metro: %d queries disagree with sums computed from the recording", m.failed)
	}
	m.ops = bestOfPasses(times)
	m.detail = map[string]float64{
		"allocs_per_query":    median(allocs),
		"ingested_records":    float64(total),
		"ingest_seconds":      elapsed.Seconds(),
		"ingest_rate_overall": float64(total) / elapsed.Seconds(),
		"query_passes":        float64(len(times)),
		"lake_spilled_bins":   float64(spilled),
		"lake_bytes_per_bin":  float64(lakeBytes) / float64(max(spilled, 1)),
		"metro_time_ms":       endMs,
		"recording_records":   float64(len(rig.items)),
		"shard_applied_frac":  float64(health.Applied) / float64(total),
		"shard_restarts":      float64(health.Restarts),
		"history_tracked_ues": float64(health.TrackedUEs),
	}
	return m, nil
}

// metroQueryList builds the fixed query mix from the seed: per-UE and
// per-cell series over windows that RAM answers alone, that only the
// lake can answer, and that straddle both, plus a few deployment-wide
// rankings — the slowest queries, so they set the p99.
func metroQueryList(seed int64, endMs float64) []metroQuery {
	rng := rand.New(rand.NewSource(seed ^ 0x51A7))
	ramMs := metroDepth * metroBinMs
	window := func(kind int) (from, to float64) {
		switch kind {
		case 0: // RAM only: inside the retained bins
			return endMs - ramMs/2, endMs + 1
		case 1: // disk only: one second that ended before RAM's oldest bin
			from = rng.Float64() * (endMs - ramMs - 1500)
			return from, from + 1000
		default: // straddling: the last 2.5 s
			return endMs - 2500, endMs + 1
		}
	}
	var qs []metroQuery
	for i := 0; i < metroUEQueries; i++ {
		from, to := window(i % 3)
		qs = append(qs, metroQuery{
			kind:   "ue",
			key:    seriesKey{uint16(1 + rng.Intn(metroCells)), uint16(0x4601 + rng.Intn(metroUEs))},
			fromMs: from, toMs: to,
		})
	}
	for i := 0; i < metroCellQueries; i++ {
		from, to := window(i % 3)
		qs = append(qs, metroQuery{kind: "cell", key: seriesKey{cell: uint16(1 + rng.Intn(metroCells))}, fromMs: from, toMs: to})
	}
	for i := 0; i < metroRankings; i++ {
		// Rankings inside RAM, and one that reaches 1.2 s into the lake:
		// it reads every series of the deployment from disk and costs
		// ten of the others, so more of them and the mean would measure
		// nothing else.
		windowMs := 500.0
		if i == metroRankings-1 {
			windowMs = 2000
		}
		qs = append(qs, metroQuery{kind: "topk", metric: []string{"dl_bits", "grants"}[i%2], fromMs: endMs - windowMs, toMs: endMs})
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

func (rig *metroRig) query(q metroQuery) ([]history.BinSample, []history.UERank, error) {
	switch q.kind {
	case "topk":
		ranks, err := rig.sup.TopK(q.metric, time.Duration((q.toMs-q.fromMs)*float64(time.Millisecond)), 10)
		return nil, ranks, err
	default:
		idx, ok := rig.sup.Partition(q.key.cell)
		if !ok {
			return nil, nil, fmt.Errorf("cell %d has no shard", q.key.cell)
		}
		store := rig.sup.Store(idx)
		if q.kind == "cell" {
			samples, err := store.CellQuery(q.key.cell, q.fromMs, q.toMs, 1)
			return samples, nil, err
		}
		samples, err := store.Query(q.key.cell, q.key.rnti, q.fromMs, q.toMs, 1)
		return samples, nil, err
	}
}
