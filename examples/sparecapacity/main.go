// Spare capacity estimation (paper §5.4.1 / Fig. 14): two UEs share the
// cell; NR-Scope splits the unused resource elements of each TTI evenly
// across them and re-rates each share at that UE's own modulation and
// coding rate, yielding a per-UE spare bitrate an application server
// could exploit without touching the RAN.
//
// The example's slot loop folds every record and every spare split into
// an internal/history store, and the report below is produced entirely
// from the history query API — the same windowed aggregates GET
// /history/ue serves over HTTP.
package main

import (
	"fmt"
	"time"

	"nrscope"
	"nrscope/internal/history"
)

func main() {
	tb, err := nrscope.NewTestbed(nrscope.MosolabPreset, 7)
	if err != nil {
		panic(err)
	}
	ue1 := tb.AttachUE(nrscope.UEProfile{Mobility: "static"})
	ue2 := tb.AttachUE(nrscope.UEProfile{Mobility: "pedestrian"})
	fmt.Printf("two UEs sharing the cell: 0x%04x (static), 0x%04x (pedestrian)\n", ue1, ue2)

	cellID := tb.GNB.Config().CellID
	st := history.New(history.Config{BinWidth: 250 * time.Millisecond, Depth: 64})
	if err := st.AddCell(cellID, tb.TTI()); err != nil {
		panic(err)
	}

	tti := tb.TTI()
	tb.RunFor(3*time.Second, func(res *nrscope.SlotResult) {
		for _, rec := range res.Records {
			st.Ingest(cellID, rec)
		}
		if res.Spare != nil {
			st.IngestSpare(cellID, res.SlotIdx, res.Spare)
		}
	})

	fmt.Println("time(s)  UE        used(Mbps)  spare(Mbps)  usedREs  spareREs")
	slotsPerBin := float64(250*time.Millisecond) / float64(tti)
	for _, rnti := range []uint16{ue1, ue2} {
		bins, _ := st.Query(cellID, rnti, 0, 3000, 1)
		for _, bin := range bins {
			if bin.Grants == 0 {
				continue
			}
			// SpareBits is the UE's share summed over the bin's slots;
			// UsedREs/TotalREs are cell-wide sums — report the per-slot
			// average to match the paper's per-TTI framing.
			spareBps := bin.SpareBits / (bin.SpanMs / 1e3)
			cell, _ := st.CellQuery(cellID, bin.StartMs, bin.StartMs+bin.SpanMs, 1)
			var usedREs, spareREs float64
			if len(cell) == 1 && cell[0].TotalREs > 0 {
				usedREs = float64(cell[0].UsedREs) / slotsPerBin
				spareREs = float64(cell[0].TotalREs-cell[0].UsedREs) / slotsPerBin
			}
			fmt.Printf("%6.2f   0x%04x  %9.2f  %10.2f  %7.0f  %8.0f\n",
				bin.StartMs/1e3, rnti, bin.DLBps/1e6, spareBps/1e6, usedREs, spareREs)
		}
	}

	fmt.Println("\nnote: both UEs get the same spare REs but different spare bitrates —")
	fmt.Println("their modulation/coding rates differ (paper Fig. 14a).")
}
