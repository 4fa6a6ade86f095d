package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/obs"
	"nrscope/internal/phy"
	"nrscope/internal/telemetry"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFailoverPanicRestartResumesPartition: a poison record whose fold
// panics in the middle of a batch costs exactly that record, counted as
// dropped and as one recovered panic in the shard's nrscope_shard_*
// accounting. The fold goes on with the next record into the SAME
// history partition (pre-crash series survive), and the peer shard is
// untouched.
func TestFailoverPanicRestartResumesPartition(t *testing.T) {
	before := obs.Snapshot()
	gate := make(chan struct{})
	sup := newTestSupervisor(t, Config{
		Shards:    2,
		QueueSize: 64,
		Policy:    DropOldest,
		ApplyHook: func(shard int, cell uint16, rec *telemetry.Record) {
			if rec.SlotIdx == 21 && rec.RNTI == 0x4601 {
				<-gate // hold the worker so the rest queues as one batch
			}
			if rec.RNTI == 0xDEAD {
				panic("injected shard fault")
			}
		},
	}, 2)

	victim, _ := sup.Partition(1)
	peer, _ := sup.Partition(2)
	if victim == peer {
		t.Fatal("cells 1 and 2 share a shard; want distinct partitions")
	}
	// Phase 1: healthy ingest builds partition state that must survive.
	for i := 0; i < 20; i++ {
		if err := sup.Ingest(1, trec(i, 0x4601, 4096, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sup.Flush()
	if got := sup.Store(victim).TrackedUEs(); got != 1 {
		t.Fatalf("pre-crash partition tracks %d UEs, want 1", got)
	}

	// Phase 2: the poison record sits mid-batch between healthy ones.
	for i := 21; i < 41; i++ {
		if err := sup.Ingest(1, trec(i, 0x4601, 4096, float64(i))); err != nil {
			t.Fatal(err)
		}
		if i == 30 {
			if err := sup.Ingest(1, trec(i, 0xDEAD, 128, float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := sup.Ingest(1, trec(i, 0x4777, 2048, float64(i))); err != nil {
			t.Fatal(err)
		}
		if err := sup.Ingest(2, trec(i, 0x4602, 1024, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	sup.Flush()

	h := sup.Health().PerShard[victim]
	if h.Dropped != 1 || h.Restarts != 1 {
		t.Fatalf("poison record cost %d drops, %d recovered panics; want exactly 1 each: %+v", h.Dropped, h.Restarts, h)
	}
	if h.Ingested != 61 || h.Applied+h.Dropped != h.Ingested {
		t.Fatalf("accounting open: applied %d + dropped %d != ingested %d (want 61)",
			h.Applied, h.Dropped, h.Ingested)
	}
	// The partition retained the pre-crash series AND grew past the crash.
	if got := sup.Store(victim).TrackedUEs(); got != 2 {
		t.Fatalf("post-crash partition tracks %d UEs, want 2 (0x4601 survived + 0x4777 new)", got)
	}
	for _, want := range []struct {
		rnti   uint16
		grants int64
	}{{0x4601, 40}, {0x4777, 20}} {
		samples, _ := sup.Store(victim).Query(1, want.rnti, 0, 0, 1)
		var grants int64
		for _, s := range samples {
			grants += s.Grants
		}
		if grants != want.grants {
			t.Fatalf("0x%04x shows %d grants across the crash, want %d", want.rnti, grants, want.grants)
		}
	}
	if ps := sup.Health().PerShard[peer]; ps.Dropped != 0 || ps.Restarts != 0 || ps.Applied != 20 {
		t.Fatalf("peer shard disturbed by the victim's panic: %+v", ps)
	}

	// The nrscope_shard_* instruments observed the recovered panic too.
	delta := obs.Delta(before, obs.Snapshot())
	prefix := fmt.Sprintf("nrscope_shard_%d_", victim)
	if delta[prefix+"restarts_total"] < 1 {
		t.Fatalf("%srestarts_total delta = %v, want >= 1", prefix, delta[prefix+"restarts_total"])
	}
	if delta[prefix+"dropped_total"] < 1 {
		t.Fatalf("%sdropped_total delta = %v, want >= 1", prefix, delta[prefix+"dropped_total"])
	}
}

// TestStalledWhileFoldBlocks: a fold wedged in a blocking hook with
// records queued behind it makes Health report the shard stalled; the
// flag clears once the hook is released and the queue drains.
func TestStalledWhileFoldBlocks(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{})
	var wedge atomic.Bool
	sup := newTestSupervisor(t, Config{
		Shards:       1,
		QueueSize:    64,
		StallTimeout: 30 * time.Millisecond,
		ApplyHook: func(shard int, cell uint16, rec *telemetry.Record) {
			if wedge.CompareAndSwap(true, false) {
				close(entered)
				<-gate // wedge exactly one fold
			}
		},
	}, 1)
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before the supervisor's Close

	wedge.Store(true)
	for i := 0; i < 10; i++ {
		if err := sup.Ingest(1, trec(i, 0x4601, 1024, float64(i))); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-entered // the rest queues behind the wedged fold
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		return sup.Health().PerShard[0].Stalled
	}, "the stalled flag")
	release()
	sup.Flush()
	ps := sup.Health().PerShard[0]
	if ps.Stalled || ps.Applied != 10 || ps.Dropped != 0 || ps.Restarts != 0 {
		t.Fatalf("after release: %+v, want not stalled, 10 applied, nothing dropped", ps)
	}
}

// TestHeldBlockSinkBackpressures: a downstream Block sink that is held
// back-pressures Ingest through the shard queues instead of costing
// records or goroutines; once it is released every record is applied
// and published, and Close leaves no goroutine behind.
func TestHeldBlockSinkBackpressures(t *testing.T) {
	const records = 200
	release := make(chan struct{})
	var delivered atomic.Int64
	b := bus.New()
	defer b.Close()
	_, err := b.Subscribe("shard_held", bus.Block, bus.SinkFunc(func(recs []telemetry.Record) error {
		<-release
		delivered.Add(int64(len(recs)))
		return nil
	}), bus.WithQueueSize(4), bus.WithBatch(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	sup := New(Config{Shards: 2, QueueSize: 8, Policy: Block, Bus: b, StallTimeout: -1})
	for c := 1; c <= 2; c++ {
		if _, err := sup.AddCell(uint16(c), phy.Mu1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}

	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for i := 0; i < records; i++ {
			_ = sup.Ingest(uint16(1+i%2), trec(i, 0x4601+uint16(i%2), 1024, float64(i)))
		}
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-produced:
		t.Fatal("Ingest never blocked behind a held Block sink")
	default:
	}
	if h := sup.Health(); h.Ingested >= records || h.Dropped != 0 {
		t.Fatalf("while held: ingested %d dropped %d; want < %d and 0", h.Ingested, h.Dropped, records)
	}

	close(release)
	<-produced
	sup.Flush()
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	h := sup.Health()
	if h.Ingested != records || h.Applied != records || h.Dropped != 0 || h.Restarts != 0 {
		t.Fatalf("after release: ingested %d applied %d dropped %d restarts %d; want %d/%d/0/0",
			h.Ingested, h.Applied, h.Dropped, h.Restarts, records, records)
	}
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= base },
		fmt.Sprintf("goroutines to settle back to %d", base))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := delivered.Load(); n != records {
		t.Fatalf("sink received %d records, want %d", n, records)
	}
}
