package shard

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"nrscope/internal/history"
	"nrscope/internal/lake"
	"nrscope/internal/phy"
	"nrscope/internal/telemetry"
)

// rankMetrics are the ranking metrics the fan-out tests cover: three
// sums and the one ratio.
var rankMetrics = []string{"dl_bits", "ul_bits", "grants", "retx_rate"}

// rankingSupervisor builds and starts a supervisor of the given shard
// count with cells 1..cells registered at 1 ms slots, a Block queue and
// histCfg on every partition. With lakes set, each partition spills to
// its own lake under a temporary directory; the lakes are returned so
// the caller can sync them.
func rankingSupervisor(tb testing.TB, shards, cells int, histCfg history.Config, lakes bool) (*Supervisor, []*lake.Lake) {
	tb.Helper()
	sup := New(Config{Shards: shards, Policy: Block, History: histCfg, StallTimeout: -1})
	for c := 1; c <= cells; c++ {
		if _, err := sup.AddCell(uint16(c), phy.Mu0); err != nil {
			tb.Fatal(err)
		}
	}
	var lks []*lake.Lake
	if lakes {
		dir := tb.TempDir()
		err := sup.AttachLakes(func(i int) (history.Lake, error) {
			lk, err := lake.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), lake.Config{
				BinWidth: histCfg.BinWidth, FlushInterval: time.Millisecond, QueueDepth: 1 << 16,
			})
			if err != nil {
				return nil, err
			}
			tb.Cleanup(func() { _ = lk.Close() })
			lks = append(lks, lk)
			return lk, nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	if err := sup.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sup.Close() })
	return sup, lks
}

// rankingFeed ingests n random records into sup from rng: cells
// 1..cells, 24 C-RNTIs a cell, time advancing a few ms a record, so a
// small MaxUEs churns the partitions and short rings spill.
func rankingFeed(sup *Supervisor, rng *rand.Rand, cells, n int, tms *float64) error {
	for i := 0; i < n; i++ {
		*tms += rng.ExpFloat64() * 3
		cell := uint16(1 + rng.Intn(cells))
		rec := telemetry.Record{
			TMs: *tms, RNTI: uint16(0x4600 + rng.Intn(24)), Downlink: rng.Intn(3) > 0,
			TBS: rng.Intn(8000), MCS: rng.Intn(28), NumPRB: 1 + rng.Intn(50), IsRetx: rng.Intn(6) == 0,
		}
		if err := sup.Ingest(cell, rec); err != nil {
			return err
		}
	}
	return nil
}

// syncAll waits until every queued record is folded and every spilled
// bin is on disk, so two rankings in a row see the same state.
func syncAll(tb testing.TB, sup *Supervisor, lks []*lake.Lake) {
	tb.Helper()
	sup.Flush()
	for _, lk := range lks {
		if err := lk.Sync(); err != nil {
			tb.Fatal(err)
		}
	}
}

// serialTopK is the ranking Supervisor.TopK must reproduce: each
// partition's TopK in shard order, merged and cut to k.
func serialTopK(sup *Supervisor, metric string, window time.Duration, k int) ([]history.UERank, error) {
	all := []history.UERank{}
	for i := 0; i < sup.Shards(); i++ {
		ranks, err := sup.Store(i).TopK(metric, window, k)
		if err != nil {
			return nil, err
		}
		all = append(all, ranks...)
	}
	slices.SortFunc(all, history.CompareRanks)
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// checkFanOut holds Supervisor.TopK to serialTopK for every metric,
// three windows and k in {0, 1, 10}.
func checkFanOut(t *testing.T, sup *Supervisor) {
	t.Helper()
	for _, metric := range rankMetrics {
		for _, window := range []time.Duration{300 * time.Millisecond, 2 * time.Second, time.Hour} {
			for _, k := range []int{0, 1, 10} {
				got, err := sup.TopK(metric, window, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := serialTopK(sup, metric, window, k)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s window %v k %d:\n got %+v\nwant %+v", metric, window, k, got, want)
				}
			}
		}
	}
}

// TestSupervisorTopKMatchesSerialMerge: at 1, 2 and 4 shards, with and
// without lakes, the concurrent fan-out ranks exactly as the partitions
// ranked one after the other and merged, and an unknown metric fails
// with the partitions' own error.
func TestSupervisorTopKMatchesSerialMerge(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				sup, lks := rankingSupervisor(t, shards, 6, history.Config{
					BinWidth: 100 * time.Millisecond, Depth: 4, MaxUEs: 20,
				}, seed%2 == 0)
				rng := rand.New(rand.NewSource(seed))
				var tms float64
				for round := 0; round < 3; round++ {
					if err := rankingFeed(sup, rng, 6, 800, &tms); err != nil {
						t.Fatal(err)
					}
					syncAll(t, sup, lks)
					checkFanOut(t, sup)
				}
				_, err := sup.TopK("no_such_metric", time.Second, 3)
				_, want := sup.Store(0).TopK("no_such_metric", time.Second, 3)
				if err == nil || want == nil || err.Error() != want.Error() {
					t.Fatalf("unknown metric: fan-out error %v, partition error %v", err, want)
				}
			})
		}
	}
}

// TestSupervisorTopKDuringIngest ranks across two lake-backed partitions
// while another goroutine ingests into both and their lakes flush
// underneath: no error, no lake drop, and once ingest stops the fan-out
// equals the serial merge.
func TestSupervisorTopKDuringIngest(t *testing.T) {
	sup, lks := rankingSupervisor(t, 2, 4, history.Config{
		BinWidth: 100 * time.Millisecond, Depth: 4, MaxUEs: 30,
	}, true)
	rng := rand.New(rand.NewSource(7))
	var tms float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := rankingFeed(sup, rng, 4, 20000, &tms); err != nil {
			t.Error(err)
		}
	}()
	defer func() { <-done }()
	rankings := 0
	for running := true; running; rankings++ {
		select {
		case <-done:
			running = false
		default:
		}
		window := time.Duration(1+rankings%30) * 100 * time.Millisecond
		if _, err := sup.TopK(rankMetrics[rankings%len(rankMetrics)], window, rankings%12); err != nil {
			t.Fatal(err)
		}
	}
	syncAll(t, sup, lks)
	for i, lk := range lks {
		if s := lk.Stats(); s.DroppedEntries != 0 || s.SpilledBins == 0 {
			t.Fatalf("lake %d: %d entries dropped, %d bins spilled", i, s.DroppedEntries, s.SpilledBins)
		}
	}
	t.Logf("%d rankings during ingest", rankings)
	checkFanOut(t, sup)
}
