package shard

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/history"
	"nrscope/internal/phy"
	"nrscope/internal/telemetry"
)

func trec(slot int, rnti uint16, tbs int, tms float64) telemetry.Record {
	return telemetry.Record{
		SlotIdx:  slot,
		RNTI:     rnti,
		Downlink: true,
		Format:   "1_1",
		TBS:      tbs,
		NumPRB:   8,
		NRE:      8 * 12 * 12,
		MCS:      12,
		Qm:       6,
		R:        0.6,
		AggLevel: 2,
		TMs:      tms,
	}
}

// newTestSupervisor builds a started supervisor with cells 1..cells
// registered and the stall flag off unless the caller overrides.
func newTestSupervisor(t *testing.T, cfg Config, cells int) *Supervisor {
	t.Helper()
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = -1
	}
	sup := New(cfg)
	for c := 1; c <= cells; c++ {
		if _, err := sup.AddCell(uint16(c), phy.Mu1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sup.Close() })
	return sup
}

func TestPartitioningBalancedAndDeterministic(t *testing.T) {
	sup := newTestSupervisor(t, Config{Shards: 4}, 10)
	counts := make([]int, 4)
	for c := 1; c <= 10; c++ {
		idx, ok := sup.Partition(uint16(c))
		if !ok {
			t.Fatalf("cell %d unrouted", c)
		}
		counts[idx]++
	}
	for i, n := range counts {
		if n < 2 || n > 3 {
			t.Fatalf("shard %d owns %d of 10 cells; want balanced 2..3 (%v)", i, n, counts)
		}
	}
	// Registration order is the deterministic tiebreak: same AddCell
	// sequence must produce the same partitioning.
	sup2 := newTestSupervisor(t, Config{Shards: 4}, 10)
	for c := 1; c <= 10; c++ {
		a, _ := sup.Partition(uint16(c))
		b, _ := sup2.Partition(uint16(c))
		if a != b {
			t.Fatalf("cell %d routed to shard %d then %d; want deterministic", c, a, b)
		}
	}
}

func TestAddCellErrors(t *testing.T) {
	sup := New(Config{Shards: 2})
	if _, err := sup.AddCell(1, phy.Mu1); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.AddCell(1, phy.Mu1); err == nil {
		t.Fatal("duplicate cell accepted")
	}
	if _, err := sup.AddCell(2, phy.Numerology(9)); err == nil {
		t.Fatal("invalid numerology accepted")
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if _, err := sup.AddCell(3, phy.Mu1); err == nil {
		t.Fatal("AddCell after Start accepted")
	}
	if err := sup.Ingest(99, trec(0, 0x4601, 1000, 0)); err == nil {
		t.Fatal("Ingest for unknown cell accepted")
	}
}

func TestIngestRoutesToOwningPartition(t *testing.T) {
	sup := newTestSupervisor(t, Config{Shards: 3}, 6)
	for c := 1; c <= 6; c++ {
		for i := 0; i < 10; i++ {
			if err := sup.Ingest(uint16(c), trec(i, 0x4600+uint16(c), 4096, float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	sup.Flush()
	for c := 1; c <= 6; c++ {
		idx, _ := sup.Partition(uint16(c))
		samples, _ := sup.Store(idx).QueryWindow(uint16(c), 0x4600+uint16(c), time.Second, 1)
		var grants int64
		for _, b := range samples {
			grants += b.Grants
		}
		if grants != 10 {
			t.Fatalf("cell %d: %d grants in owning partition, want 10", c, grants)
		}
		// And only the owning partition: others must not know the cell.
		for other := 0; other < sup.Shards(); other++ {
			if other == idx {
				continue
			}
			if leaked, _ := sup.Store(other).QueryWindow(uint16(c), 0x4600+uint16(c), time.Second, 1); leaked != nil {
				t.Fatalf("cell %d leaked into shard %d", c, other)
			}
		}
	}
}

func TestCloseSemantics(t *testing.T) {
	sup := newTestSupervisor(t, Config{Shards: 2}, 2)
	if err := sup.Ingest(1, trec(0, 0x4601, 1000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sup.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if err := sup.Ingest(1, trec(1, 0x4601, 1000, 1)); err != ErrClosed {
		t.Fatalf("Ingest after Close = %v, want ErrClosed", err)
	}
	if err := sup.IngestSpare(1, 0, &telemetry.SpareCapacity{}); err != ErrClosed {
		t.Fatalf("IngestSpare after Close = %v, want ErrClosed", err)
	}
	// The queued record was drained before Close returned.
	h := sup.Health()
	if h.Applied != 1 || h.Ingested != 1 {
		t.Fatalf("after Close: applied=%d ingested=%d, want 1/1", h.Applied, h.Ingested)
	}
}

func TestDropOldestEvictionCounted(t *testing.T) {
	// A paused worker (blocking hook) with a tiny queue forces eviction.
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	sup := newTestSupervisor(t, Config{
		Shards:    1,
		QueueSize: 4,
		Policy:    DropOldest,
		ApplyHook: func(shard int, cell uint16, rec *telemetry.Record) {
			<-gate
		},
	}, 1)
	defer release()
	for i := 0; i < 32; i++ {
		if err := sup.Ingest(1, trec(i, 0x4601, 1000, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	h := sup.Health()
	if h.Dropped == 0 {
		t.Fatalf("32 pushes into a stalled 4-deep DropOldest queue dropped nothing: %+v", h.PerShard[0])
	}
	if h.Ingested != 32 {
		t.Fatalf("ingested=%d, want 32", h.Ingested)
	}
	release()
	sup.Flush()
	h = sup.Health()
	if got := h.Applied + h.Dropped; got != h.Ingested {
		t.Fatalf("accounting open after flush: applied %d + dropped %d != ingested %d",
			h.Applied, h.Dropped, h.Ingested)
	}
}

func TestBusPublishComposes(t *testing.T) {
	b := bus.New()
	var got atomic.Int64
	_, err := b.Subscribe("count", bus.Block, bus.SinkFunc(func(recs []telemetry.Record) error {
		got.Add(int64(len(recs)))
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	sup := newTestSupervisor(t, Config{Shards: 2, Bus: b}, 2)
	for i := 0; i < 10; i++ {
		if err := sup.Ingest(1, trec(i, 0x4601, 1000, float64(i))); err != nil {
			t.Fatal(err)
		}
		if err := sup.Ingest(2, trec(i, 0x4602, 1000, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sup.Flush()
	b.Close() // drains the subscription before returning
	if n := got.Load(); n != 20 {
		t.Fatalf("bus sink saw %d records, want 20", n)
	}
}

func TestRollupTopKMergesPartitions(t *testing.T) {
	sup := newTestSupervisor(t, Config{Shards: 3}, 6)
	// Cell c's UE moves tbs proportional to c: global ranking must
	// interleave cells that live on different shards.
	for c := 1; c <= 6; c++ {
		for i := 0; i < 5; i++ {
			if err := sup.Ingest(uint16(c), trec(i, 0x4600+uint16(c), 1000*c, float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	sup.Flush()
	ranks, err := sup.TopK("dl_bits", time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 3 {
		t.Fatalf("got %d ranks, want 3", len(ranks))
	}
	wantCells := []uint16{6, 5, 4}
	for i, want := range wantCells {
		if ranks[i].Cell != want {
			t.Fatalf("rank %d is cell %d, want %d (ranks %+v)", i, ranks[i].Cell, want, ranks)
		}
	}
	if _, err := sup.TopK("no_such_metric", time.Second, 3); err == nil {
		t.Fatal("bad metric accepted")
	}
}

func TestRollupSnapshotAndHealth(t *testing.T) {
	sup := newTestSupervisor(t, Config{Shards: 2, History: history.Config{BinWidth: 10 * time.Millisecond}}, 4)
	for c := 1; c <= 4; c++ {
		for i := 0; i < 8; i++ {
			if err := sup.Ingest(uint16(c), trec(i, 0x4600+uint16(c), 2048, float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	sup.Flush()
	snap := sup.Snapshot()
	if len(snap.Cells) != 4 {
		t.Fatalf("merged snapshot has %d cells, want 4", len(snap.Cells))
	}
	for i := 1; i < len(snap.Cells); i++ {
		if snap.Cells[i-1].Cell >= snap.Cells[i].Cell {
			t.Fatalf("merged snapshot cells unsorted: %+v", snap.Cells)
		}
	}
	if snap.TrackedUEs != 4 {
		t.Fatalf("merged snapshot tracks %d UEs, want 4", snap.TrackedUEs)
	}
	h := sup.Health()
	if h.Shards != 2 || h.Cells != 4 {
		t.Fatalf("health: shards=%d cells=%d, want 2/4", h.Shards, h.Cells)
	}
	if h.Ingested != 32 || h.Applied != 32 || h.Dropped != 0 {
		t.Fatalf("health totals ingested=%d applied=%d dropped=%d, want 32/32/0",
			h.Ingested, h.Applied, h.Dropped)
	}
	var perShardUEs int
	for _, ps := range h.PerShard {
		if ps.Stalled || ps.Restarts != 0 {
			t.Fatalf("shard %d not healthy: %+v", ps.Shard, ps)
		}
		if ps.QueueCapacity == 0 {
			t.Fatalf("shard %d reports zero queue capacity", ps.Shard)
		}
		perShardUEs += ps.TrackedUEs
	}
	if perShardUEs != h.TrackedUEs {
		t.Fatalf("per-shard UEs sum %d != rollup %d", perShardUEs, h.TrackedUEs)
	}
}

func TestFusionShardsDetectHandovers(t *testing.T) {
	// Cells 1 and 2 land on different shards of a 2-shard supervisor;
	// with a 1-shard supervisor they share one aggregator and an RNTI
	// moving between them is a handover candidate.
	sup := newTestSupervisor(t, Config{Shards: 1, Fusion: true}, 2)
	for i := 0; i < 30; i++ {
		if err := sup.Ingest(1, trec(i, 0x4601, 4096, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 30; i < 60; i++ {
		if err := sup.Ingest(2, trec(i, 0x4601, 4096, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sup.Flush()
	if hos := sup.Handovers(); len(hos) == 0 {
		t.Fatal("single-shard fusion saw no handover candidates")
	}
	if cas := sup.CarrierAggregation(0.0); cas == nil {
		_ = cas // may legitimately be empty; just exercise the merge path
	}
}

// TestAnomaliesOrderedAcrossShards: the merged anomaly list is in time
// order whatever the partitioning, so one- and two-shard supervisors fed
// the same records return the same list, and its last entry is the
// latest anomaly. Cell 1's retx spike comes after cell 2's, but cell 1
// is on the first of two shards.
func TestAnomaliesOrderedAcrossShards(t *testing.T) {
	spikeBin := map[uint16]int{1: 20, 2: 10}
	run := func(shards int) []history.Anomaly {
		sup := newTestSupervisor(t, Config{Shards: shards, Policy: Block}, 2)
		for bin := 0; bin <= 25; bin++ {
			for i := 0; i < 10; i++ {
				for c := uint16(1); c <= 2; c++ {
					rec := trec(bin*10+i, 0x4600+c, 1000, float64(bin*100+i))
					rec.IsRetx = bin == spikeBin[c] && i < 6
					if err := sup.Ingest(c, rec); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		sup.Flush()
		return sup.Anomalies()
	}
	one, two := run(1), run(2)
	if len(one) < 2 {
		t.Fatalf("one shard flagged %d anomalies, want both spikes: %+v", len(one), one)
	}
	if !reflect.DeepEqual(one, two) {
		t.Errorf("anomalies depend on the partitioning:\n1 shard:  %+v\n2 shards: %+v", one, two)
	}
	for i := 1; i < len(two); i++ {
		if two[i].AtMs < two[i-1].AtMs {
			t.Errorf("anomaly %d at %.0f ms listed after one at %.0f ms", i, two[i].AtMs, two[i-1].AtMs)
		}
	}
	if last := two[len(two)-1]; last.Cell != 1 || last.AtMs != 2000 {
		t.Errorf("last anomaly %s, want cell 1's spike at 2000 ms", last)
	}
}

func TestMountServesRollups(t *testing.T) {
	sup := newTestSupervisor(t, Config{Shards: 2}, 4)
	for c := 1; c <= 4; c++ {
		for i := 0; i < 5; i++ {
			if err := sup.Ingest(uint16(c), trec(i, 0x4600+uint16(c), 1024*c, float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	sup.Flush()
	mux := http.NewServeMux()
	sup.Mount(mux)

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}

	w := get("/shards")
	if w.Code != http.StatusOK {
		t.Fatalf("/shards: %d", w.Code)
	}
	var r Rollup
	if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Shards != 2 || r.Cells != 4 || len(r.PerShard) != 2 {
		t.Fatalf("/shards rollup: %+v", r)
	}

	w = get("/history/topk?metric=dl_bits&window=1s&k=2")
	if w.Code != http.StatusOK {
		t.Fatalf("/history/topk: %d %s", w.Code, w.Body)
	}
	var tk struct {
		Metric string           `json:"metric"`
		Ranks  []history.UERank `json:"ranks"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &tk); err != nil {
		t.Fatal(err)
	}
	if tk.Metric != "dl_bits" || len(tk.Ranks) != 2 {
		t.Fatalf("/history/topk: %+v", tk)
	}
	if tk.Ranks[0].Cell != 4 {
		t.Fatalf("/history/topk top cell %d, want 4", tk.Ranks[0].Cell)
	}

	for _, bad := range []string{
		"/history/topk?window=nope",
		"/history/topk?k=0",
		"/history/topk?metric=no_such_metric",
	} {
		if w := get(bad); w.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", bad, w.Code)
		}
	}

	w = get("/shards/snapshot")
	if w.Code != http.StatusOK {
		t.Fatalf("/shards/snapshot: %d", w.Code)
	}
	w = get("/shards/handovers")
	if w.Code != http.StatusOK {
		t.Fatalf("/shards/handovers: %d", w.Code)
	}
}

func TestMetroLoadDeterministic(t *testing.T) {
	type key struct {
		cell uint16
		rec  telemetry.Record
	}
	run := func() []key {
		load, err := NewMetroLoad(5, 16, phy.Mu1, 42)
		if err != nil {
			t.Fatal(err)
		}
		var out []key
		for slot := 0; slot < 50; slot++ {
			load.Slot(slot, func(cell uint16, rec telemetry.Record) {
				out = append(out, key{cell, rec})
			})
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("metro load emitted nothing over 50 slots")
	}
	if len(a) != len(b) {
		t.Fatalf("two runs emitted %d vs %d records", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between identically-seeded runs", i)
		}
	}
	// All of a cell's RNTIs get scheduled eventually (round-robin).
	seen := map[uint16]bool{}
	for _, k := range a {
		if k.cell == 1 {
			seen[k.rec.RNTI] = true
		}
	}
	if len(seen) != 16 {
		t.Fatalf("cell 1 scheduled %d distinct RNTIs over 50 slots, want all 16", len(seen))
	}

	if _, err := NewMetroLoad(0, 4, phy.Mu1, 1); err == nil {
		t.Fatal("0 cells accepted")
	}
	if _, err := NewMetroLoad(4, 0, phy.Mu1, 1); err == nil {
		t.Fatal("0 UEs accepted")
	}
	if _, err := NewMetroLoad(4, 4, phy.Numerology(9), 1); err == nil {
		t.Fatal("invalid numerology accepted")
	}
}

func TestSpareCapacityRoutes(t *testing.T) {
	sup := newTestSupervisor(t, Config{Shards: 2}, 2)
	if err := sup.Ingest(1, trec(0, 0x4601, 1000, 0)); err != nil {
		t.Fatal(err)
	}
	sp := &telemetry.SpareCapacity{}
	if err := sup.IngestSpare(1, 0, sp); err != nil {
		t.Fatal(err)
	}
	if err := sup.IngestSpare(1, 1, nil); err != nil {
		t.Fatal("nil spare must be a no-op, got", err)
	}
	sup.Flush()
	h := sup.Health()
	if h.Applied != 2 {
		t.Fatalf("applied=%d, want 2 (record + spare)", h.Applied)
	}
}
