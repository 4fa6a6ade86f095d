package shard

import (
	"flag"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/history"
	"nrscope/internal/phy"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/telemetry"
	"nrscope/internal/traffic"
)

// The "metro capture" scenario: the ROADMAP's metro-scale target of one
// process supervising hundreds of cells. BenchmarkMetroCapture replays a
// deterministic 200-cell × 512-UE record stream through the supervisor
// at each shard count; CI runs it at -shards 1 and 4 and gates the build
// on the 4-shard run sustaining >= 2.5x the 1-shard throughput
// (cmd/benchgate against the BENCH_metro.json artifact).
var (
	metroShardsFlag = flag.String("metro.shards", "1,2,4", "comma-separated shard counts for BenchmarkMetroCapture")
	metroCellsFlag  = flag.Int("metro.cells", 200, "cells in the metro capture scenario")
	metroUEsFlag    = flag.Int("metro.ues", 512, "tracked UEs per cell in the metro capture scenario")
)

func metroShardCounts(tb testing.TB) []int {
	var out []int
	for _, f := range strings.Split(*metroShardsFlag, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			tb.Fatalf("bad -metro.shards element %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		tb.Fatal("-metro.shards is empty")
	}
	return out
}

// metroStream pre-generates the scenario's record stream grouped by the
// shard that will receive it, so the timed region measures supervisor
// ingest + apply, not load synthesis.
func metroStream(tb testing.TB, load *MetroLoad, sup *Supervisor, slots int) [][]item {
	perShard := make([][]item, sup.Shards())
	for slot := 0; slot < slots; slot++ {
		load.Slot(slot, func(cell uint16, rec telemetry.Record) {
			idx, ok := sup.Partition(cell)
			if !ok {
				tb.Fatalf("cell %d not registered", cell)
			}
			perShard[idx] = append(perShard[idx], item{cell: cell, rec: rec})
		})
	}
	for i, s := range perShard {
		if len(s) == 0 {
			tb.Fatalf("shard %d received no stream records; widen the slot range", i)
		}
	}
	return perShard
}

func newMetroSupervisor(tb testing.TB, shards, cells, ues int) (*Supervisor, *MetroLoad) {
	load, err := NewMetroLoad(cells, ues, phy.Mu1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	sup := New(Config{
		Shards:    shards,
		queueSize: 8192,
		Policy:    Block, // no silent drops: throughput numbers mean "records applied"
		History: history.Config{
			// Small rings keep the 102,400-series scenario ~100 MB;
			// the bench measures ingest scaling, not retention depth.
			BinWidth: 50 * time.Millisecond,
			Depth:    8,
			MaxUEs:   cells*ues/shards + cells, // per-partition cap, slack for uneven cell split
		},
		StallTimeout: -1, // a saturated benchmark apply loop is not a stall
	})
	if err := load.Register(sup); err != nil {
		tb.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		tb.Fatal(err)
	}
	return sup, load
}

func BenchmarkMetroCapture(b *testing.B) {
	cells, ues := *metroCellsFlag, *metroUEsFlag
	for _, shards := range metroShardCounts(b) {
		b.Run(fmt.Sprintf("shards=%d/cells=%d/ues=%d", shards, cells, ues), func(b *testing.B) {
			sup, load := newMetroSupervisor(b, shards, cells, ues)
			defer sup.Close()

			// 256 slots of stream: enough for the round-robin scheduler
			// to touch every C-RNTI, so the warm-up replay below creates
			// all UE series and the timed region is steady-state.
			perShard := metroStream(b, load, sup, 256)
			for _, stream := range perShard {
				for i := range stream {
					if err := sup.Ingest(stream[i].cell, stream[i].rec); err != nil {
						b.Fatal(err)
					}
				}
			}
			sup.Flush()

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			share := b.N / sup.Shards()
			for idx, stream := range perShard {
				n := share
				if idx == 0 {
					n = b.N - share*(sup.Shards()-1)
				}
				wg.Add(1)
				go func(stream []item, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						it := &stream[i%len(stream)]
						if err := sup.Ingest(it.cell, it.rec); err != nil {
							b.Error(err)
							return
						}
					}
				}(stream, n)
			}
			wg.Wait()
			sup.Flush()
			b.StopTimer()

			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rec/s")
			h := sup.Health()
			if h.Dropped != 0 {
				b.Fatalf("Block policy benchmark dropped %d records", h.Dropped)
			}
			if got, want := h.Applied, h.Ingested; got != want {
				b.Fatalf("applied %d records, ingested %d", got, want)
			}
		})
	}
}

// decodeTB is one simulated cell of the metro decode scenario: its own
// gNB, receiver, and telemetry engine.
type decodeTB struct {
	cfg ran.CellConfig
	gnb *ran.GNB
	rx  *radio.Receiver
	sc  *core.Scope
}

func newDecodeTB(tb testing.TB, cellID uint16, seed int64) *decodeTB {
	tb.Helper()
	cfg := ran.AmarisoftCell()
	cfg.CellID = cellID
	cfg.Seed = seed
	gnb, err := ran.NewGNB(cfg, 1<<20)
	if err != nil {
		tb.Fatal(err)
	}
	d := &decodeTB{
		cfg: cfg,
		gnb: gnb,
		rx:  radio.NewReceiver(channel.Normal, 25, cfg.Seed^0xACE),
		sc:  core.New(cfg.CellID),
	}
	gnb.AddUE(func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewBulk(4000), traffic.NewCBR(200e3, cfg.TTI()),
			channel.New(channel.Normal, cfg.BaseSNRdB, seed)
	}, -1)
	return d
}

func (d *decodeTB) stepRaw() *radio.Capture {
	out := d.gnb.Step()
	return d.rx.Capture(out.SlotIdx, out.Ref, out.Grid)
}

// The "metro decode" scenario: unlike BenchmarkMetroCapture (which
// replays pre-decoded records and measures ingest/apply), this one
// measures the deployment's whole slot path — raw captures blind-decoded
// on the shared core.DecodePool, its handlers feeding the decoded
// records to a Block-policy supervisor, exactly as cmd/nrscope -shards
// wires them. CI runs it at 1 and 4 pool workers and gates the 4-worker
// run sustaining >= 2x the 1-worker decode throughput.
var metroDecodeCellsFlag = flag.Int("metro.decodecells", 8, "cells in the metro decode scenario")

func BenchmarkMetroDecode(b *testing.B) {
	cells := *metroDecodeCellsFlag
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d/cells=%d", workers, cells), func(b *testing.B) {
			sup := New(Config{
				Shards:       4,
				queueSize:    4096,
				Policy:       Block,
				History:      history.Config{BinWidth: 50 * time.Millisecond, Depth: 8},
				StallTimeout: -1,
			})
			pool := core.NewDecodePool(workers, 64)
			// Warm each scope through acquisition before the pool takes
			// over, then pre-generate a steady-state capture stream per
			// cell so the timed region measures decode, not RAN synthesis.
			const streamLen = 64
			ids := make([]uint16, cells)
			streams := make([][]*radio.Capture, cells)
			for i := range streams {
				d := newDecodeTB(b, uint16(200+i), int64(31+i))
				id := d.cfg.CellID
				ids[i] = id
				if _, err := sup.AddCell(id, d.cfg.Mu); err != nil {
					b.Fatal(err)
				}
				for s := 0; s < 600; s++ {
					d.sc.ProcessSlot(d.stepRaw())
				}
				if !d.sc.CellAcquired() {
					b.Fatalf("cell %d failed acquisition during warm-up", id)
				}
				streams[i] = make([]*radio.Capture, streamLen)
				for s := range streams[i] {
					streams[i][s] = d.stepRaw()
				}
				if err := pool.AddCell(id, d.sc, func(res *core.SlotResult) {
					for _, rec := range res.Records {
						if err := sup.Ingest(id, rec); err != nil {
							b.Error(err)
						}
					}
					if err := sup.IngestSpare(id, res.SlotIdx, res.Spare); err != nil {
						b.Error(err)
					}
				}); err != nil {
					b.Fatal(err)
				}
			}
			if err := sup.Start(); err != nil {
				b.Fatal(err)
			}
			defer sup.Close()
			if err := pool.Start(); err != nil {
				b.Fatal(err)
			}
			defer pool.Close()

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			share := b.N / cells
			for i, id := range ids {
				n := share
				if i == 0 {
					n = b.N - share*(cells-1)
				}
				wg.Add(1)
				go func(id uint16, stream []*radio.Capture, n int) {
					defer wg.Done()
					for s := 0; s < n; s++ {
						if !pool.Submit(id, stream[s%len(stream)]) {
							b.Errorf("cell %d: Submit refused", id)
							return
						}
					}
				}(id, streams[i], n)
			}
			wg.Wait()
			pool.Flush()
			sup.Flush()
			b.StopTimer()

			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "slots/s")
			h := sup.Health()
			if h.Dropped != 0 {
				b.Fatalf("Block policy benchmark dropped %d records", h.Dropped)
			}
			if h.Applied != h.Ingested {
				b.Fatalf("applied %d of %d ingested records", h.Applied, h.Ingested)
			}
		})
	}
}

// TestMetroSoakFlatHeap drives the supervisor for >= 10x the history
// ring span and asserts the heap stays flat once every series exists —
// the bounded-memory half of the metro acceptance gate. The stream keeps
// advancing TMs (unlike the benchmark's cyclic replay), so ring bins
// recycle continuously.
func TestMetroSoakFlatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		cells = 20
		ues   = 128
		depth = 16
	)
	binWidth := 10 * time.Millisecond
	load, err := NewMetroLoad(cells, ues, phy.Mu1, 7)
	if err != nil {
		t.Fatal(err)
	}
	sup := New(Config{
		Shards: 2,
		Policy: Block,
		History: history.Config{
			BinWidth: binWidth,
			Depth:    depth,
			MaxUEs:   cells * ues,
		},
		StallTimeout: -1,
	})
	if err := load.Register(sup); err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	// Ring spans depth*binWidth of stream time; at Mu1 each slot is
	// 0.5 ms. 10 rings of slots, plus a fifth of that as warm-up.
	ringSlots := int(time.Duration(depth) * binWidth / phy.Mu1.SlotDuration())
	soakSlots := 10 * ringSlots
	warmup := soakSlots / 5

	emit := func(cell uint16, rec telemetry.Record) {
		if err := sup.Ingest(cell, rec); err != nil {
			t.Error(err)
		}
	}
	slot := 0
	for ; slot < warmup; slot++ {
		load.Slot(slot, emit)
	}
	sup.Flush()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	for ; slot < warmup+soakSlots; slot++ {
		load.Slot(slot, emit)
	}
	sup.Flush()

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if after.HeapAlloc > before.HeapAlloc {
		growth := after.HeapAlloc - before.HeapAlloc
		if growth > 4<<20 {
			t.Fatalf("heap grew %d bytes over a %d-slot soak (%d ring spans); want flat",
				growth, soakSlots, 10)
		}
	}
	h := sup.Health()
	if h.Dropped != 0 {
		t.Fatalf("soak dropped %d records under Block policy", h.Dropped)
	}
	if h.TrackedUEs == 0 {
		t.Fatal("soak tracked no UE series")
	}
}
