package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// errWorse is what -compare fails with when any metric regressed.
var errWorse = errors.New("at least one metric is worse than its bound allows")

func readResults(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultsFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string][]float64)
	for _, r := range file.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// compareFiles prints one row per workload and end-to-end metric: the
// two medians, B over A, the bound, and a verdict. A metric is worse
// when B's median is worse than A's by more than the bound; it is
// unresolved when either side's runs spread wider than the bound, unless
// every run of one side beats every run of the other.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-10s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	worse := false
	for _, w := range workloadDecls {
		for _, d := range endToEndDecls {
			va, vb := a[w.Name][d.Name], b[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-10s %-18s %14s %14s %9s %6.2f  missing\n", w.Name, d.Name, "-", "-", "-", d.Bound)
				continue
			}
			ma, mb := median(va), median(vb)
			verdict := compareVerdict(va, vb, d)
			worse = worse || verdict == "worse"
			fmt.Fprintf(out, "%-10s %-18s %14.4f %14.4f %9.4f %6.2f  %s (n=%d/%d, spread %.3f/%.3f)\n",
				w.Name, d.Name, ma, mb, mb/ma, d.Bound, verdict, len(va), len(vb), quartileSpread(va), quartileSpread(vb))
		}
	}
	if worse {
		return errWorse
	}
	return nil
}

func compareVerdict(va, vb []float64, d decl) string {
	ma, mb := median(va), median(vb)
	// change > 0 means B is worse, whichever way the metric points.
	change := mb/ma - 1
	if d.Better == "higher" {
		change = ma/mb - 1
	}
	sa, sb := sortedCopy(va), sortedCopy(vb)
	disjoint := sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
	if (quartileSpread(va) > d.Bound || quartileSpread(vb) > d.Bound) && !disjoint {
		return "unresolved"
	}
	if change > d.Bound {
		return "worse"
	}
	return "ok"
}
