// Multi-cell fusion (paper §7, "Post-Processing Library"): two NR-Scope
// instances monitor two cells; their telemetry streams are fused into an
// aggregate view that reports per-cell load and flags cross-cell UE
// handovers — a session going silent on one cell immediately followed by
// a fresh C-RNTI with a similar traffic fingerprint on the other.
//
// The aggregator is history-backed: every record is folded into a
// bounded history.Store of fixed-depth bin rings, and the fused views
// (merged stream, carrier-aggregation correlation) are reconstructed
// from those bins. Here the store is created explicitly and shared with
// the aggregator — the same wiring each cmd/nrscope shard partition
// uses under -fuse-cell, where one copy of the bins backs both the
// fusion views and the /history query API.
package main

import (
	"fmt"
	"time"

	"nrscope"
	"nrscope/internal/fusion"
	"nrscope/internal/history"
)

func main() {
	// Two independent cells, each with its own scope.
	cellA, err := nrscope.NewTestbed(nrscope.AmarisoftPreset, 5)
	if err != nil {
		panic(err)
	}
	cellB, err := nrscope.NewTestbed(nrscope.MosolabPreset, 6)
	if err != nil {
		panic(err)
	}
	// One bounded store backs the fusion views and stays queryable:
	// 10 ms correlation bins, 600 bins (= 6 s) retained per series.
	store := history.New(history.Config{BinWidth: 10 * time.Millisecond, Depth: 600})
	agg := fusion.NewWithStore(store)
	idA, idB := cellA.GNB.Config().CellID, cellB.GNB.Config().CellID
	must(agg.AddCell(idA, cellA.GNB.Config().Mu))
	must(agg.AddCell(idB, cellB.GNB.Config().Mu))

	// The moving UE: 1.5 s on cell A, then it re-attaches on cell B.
	// (C-RNTIs are cell-local: the scopes see two unrelated identifiers.)
	onA := cellA.AttachUE(nrscope.UEProfile{Mobility: "vehicle", SessionSeconds: 1.5})
	// A bystander UE on cell B from the start.
	bystander := cellB.AttachUE(nrscope.UEProfile{Mobility: "static"})
	fmt.Printf("moving UE on cell A: 0x%04x; bystander on cell B: 0x%04x\n", onA, bystander)

	var onB uint16
	total := 3 * time.Second
	step := 50 * time.Millisecond
	for t := time.Duration(0); t < total; t += step {
		cellA.RunFor(step, func(res *nrscope.SlotResult) {
			for _, rec := range res.Records {
				_ = agg.Ingest(idA, rec)
			}
		})
		cellB.RunFor(step, func(res *nrscope.SlotResult) {
			for _, rec := range res.Records {
				_ = agg.Ingest(idB, rec)
			}
		})
		// Hand the UE over once its cell-A session ends.
		if onB == 0 && t >= 1500*time.Millisecond {
			onB = cellB.AttachUE(nrscope.UEProfile{Mobility: "vehicle"})
			fmt.Printf("t=%v: UE re-attaches on cell B (will get 0x%04x)\n", t, onB)
		}
	}

	for _, id := range []uint16{idA, idB} {
		load, _ := agg.CellLoad(id)
		totalUEs, recent, _ := agg.ActiveUEs(id, total, time.Second)
		fmt.Printf("cell %d: mean load %.2f Mbps, %d UEs seen (%d recent)\n",
			id, load/1e6, totalUEs, recent)
	}
	for _, h := range agg.Handovers() {
		fmt.Println(h)
	}
	if len(agg.Handovers()) == 0 {
		fmt.Println("no handover candidates detected")
	}
	fmt.Printf("merged view: %d active bins across both cells (bounded by the %d-bin rings)\n",
		len(agg.Merged()), store.Depth())
	// The shared store answers queries over the same bins the fused
	// views were computed from — the moving UE's last second on cell B:
	if onB != 0 {
		var bits int64
		bins, _ := store.QueryWindow(idB, onB, time.Second, 1)
		for _, b := range bins {
			bits += b.DLBits
		}
		fmt.Printf("moving UE 0x%04x on cell B: %d DL bits in its last retained second\n", onB, bits)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
