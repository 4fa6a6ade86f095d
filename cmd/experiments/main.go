// Command experiments regenerates the paper's evaluation: every figure
// of §5 (and appendix C/D) as the same series the paper plots, against
// the simulated RAN substrate. See DESIGN.md §4 for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	experiments -fig all            # everything, full scale
//	experiments -fig fig7a,fig9b    # a subset
//	experiments -quick              # smoke-scale sweep
//	experiments -summary            # headline numbers only
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"nrscope/internal/eval"
)

var figures = []struct {
	id  string
	fn  func(eval.Options) eval.Figure
	doc string
}{
	{"fig7a", eval.Fig7a, "DCI miss rate, srsRAN, 1-4 UEs"},
	{"fig7b", eval.Fig7b, "DCI miss rate, Amarisoft, 8-64 UEs"},
	{"fig8a", eval.Fig8a, "REG decoding error CCDF, srsRAN"},
	{"fig8b", eval.Fig8b, "REG decoding error CCDF, Amarisoft"},
	{"fig9a", eval.Fig9a, "throughput error CCDF, Mosolab"},
	{"fig9b", eval.Fig9b, "throughput error CCDF, Amarisoft"},
	{"fig9c", eval.Fig9c, "throughput error CCDF, T-Mobile"},
	{"fig10", eval.Fig10, "UE active time CCDF, T-Mobile"},
	{"fig11", eval.Fig11, "active UEs per second/minute CDF"},
	{"fig12", eval.Fig12, "processing time vs UEs, 20 vs 10 MHz cell"},
	{"fig13", eval.Fig13, "DCI miss rate across the floor"},
	{"fig14", eval.Fig14, "spare capacity estimation, 2 UEs"},
	{"fig15", eval.Fig15, "MCS and retransmission by channel"},
	{"fig16abc", eval.Fig16abc, "throughput error by UE status"},
	{"fig16d", eval.Fig16d, "packet aggregation per TTI"},
	{"ext-sched", eval.ExtSchedulers, "extension: RR vs PF scheduler fingerprinting"},
	{"ext-cc", eval.ExtCongestion, "extension: telemetry-driven congestion control vs AIMD"},
}

func main() {
	var (
		which   = flag.String("fig", "all", "comma-separated figure ids, or 'all'")
		quick   = flag.Bool("quick", false, "smoke-scale sweeps")
		slots   = flag.Int("slots", 0, "override per-run slot count")
		seed    = flag.Int64("seed", 0, "override base seed")
		summary = flag.Bool("summary", false, "print headline notes only")
		list    = flag.Bool("list", false, "list available figures")
	)
	flag.Parse()

	if *list {
		for _, f := range figures {
			fmt.Printf("%-9s %s\n", f.id, f.doc)
		}
		return
	}

	want := map[string]bool{}
	if *which != "all" {
		for _, id := range strings.Split(*which, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			if !knownFigure(id) {
				log.Fatalf("unknown figure %q (try -list)", id)
			}
		}
	}

	opts := eval.Options{Quick: *quick, Slots: *slots, Seed: *seed}
	for _, f := range figures {
		if *which != "all" && !want[f.id] {
			continue
		}
		start := time.Now()
		fig := f.fn(opts)
		if *summary {
			fmt.Print(fig.Summary())
		} else {
			fmt.Print(fig.String())
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", f.id, time.Since(start).Round(time.Millisecond))
	}
}

func knownFigure(id string) bool {
	for _, f := range figures {
		if f.id == id {
			return true
		}
	}
	return false
}
