// UE behaviour measurement (paper §5.3.1 / Figs. 10-11): point NR-Scope
// at a busy commercial-style cell with churning users and measure, out
// of loop, how long UEs stay and how many are scheduled per second —
// the "come-and-go" pattern of real cellular networks.
//
// The scheduled-per-second series (Fig. 11) is computed from the
// internal/history store's 1-second bins rather than hand-rolled maps:
// the slot loop folds every record into the store's windowed
// aggregates, and the example just queries them.
package main

import (
	"fmt"
	"sort"
	"time"

	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/history"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
)

func main() {
	cfg := ran.TMobileCell(1)
	cfg.Seed = 23
	gnb, err := ran.NewGNB(cfg, 1<<21)
	if err != nil {
		panic(err)
	}
	pop := ran.DefaultPopulation()
	pop.ArrivalsPerSecond = 1.5
	gnb.SetPopulation(pop)

	duration := 30 * time.Second
	st := history.New(history.Config{BinWidth: time.Second, Depth: 64})
	if err := st.AddCell(cfg.CellID, cfg.TTI()); err != nil {
		panic(err)
	}

	rx := radio.NewReceiver(channel.Normal, 16, 99).Reuse(true)
	scope := core.New(cfg.CellID, core.WithIdleHorizon(2*time.Second))

	slots := int(duration / cfg.TTI())
	for i := 0; i < slots; i++ {
		out := gnb.Step()
		for _, rec := range scope.ProcessSlot(rx.Capture(out.SlotIdx, out.Ref, out.Grid)).Records {
			st.Ingest(cfg.CellID, rec)
		}
	}

	// Session lengths (Fig. 10), from the scope's association tracking.
	var sessions []float64
	for _, a := range scope.DepartedUEs() {
		sessions = append(sessions, float64(a.ActiveSlots())*cfg.TTI().Seconds())
	}
	for _, rnti := range scope.KnownUEs() {
		if tr := scope.Track(rnti); tr != nil {
			sessions = append(sessions, float64(tr.LastSeen-tr.FirstSeen+1)*cfg.TTI().Seconds())
		}
	}
	sort.Float64s(sessions)
	fmt.Printf("observed %d UE sessions in %v of air time\n", len(sessions), duration)
	if n := len(sessions); n > 0 {
		fmt.Printf("  median active time: %5.1f s\n", sessions[n/2])
		fmt.Printf("  p90 active time:    %5.1f s  (paper: 90%% of UEs stay < 35 s)\n", sessions[n*9/10])
	}

	// Scheduled UEs per second (Fig. 11): every 1 s history bin with at
	// least one grant marks its UE scheduled in that second.
	perSecond := map[int64]int{}
	for _, ue := range st.UEs(cfg.CellID) {
		bins, _ := st.Query(cfg.CellID, ue.RNTI, 0, duration.Seconds()*1e3, 1)
		for _, bin := range bins {
			if bin.Grants > 0 {
				perSecond[int64(bin.StartMs/1e3)]++
			}
		}
	}
	var counts []int
	for _, n := range perSecond {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	if n := len(counts); n > 0 {
		fmt.Printf("scheduled UEs per second: median %d, max %d  (%d UE series retained)\n",
			counts[n/2], counts[n-1], st.TrackedUEs())
	}
}
