// Command bench is the repository's benchmark: it replays recorded
// slots through the scope, the delivery path and the storage path, and
// prints the metrics BENCHMARK.json declares. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// outDir holds everything a run writes: results, the trace, and the
// sinks' temporary files. It is bench/out whether the program is
// started from the repository root (run.sh) or from bench/ (go run -C).
var outDir = func() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out"
	}
	return "out"
}()

// maxFailedFrac is the share of operations a decode workload may get
// wrong (missed or invented DCIs and UCI reports) and still count as
// correct: the paper's own miss rate at this SNR is of that order.
// deliver16 and metro tolerate none and fail on the first.
const maxFailedFrac = 0.01

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measured is what a workload hands back for reduction to the
// end-to-end metrics every workload shares.
type measured struct {
	setupS     []float64 // one entry per set-up repetition
	opName     string    // what one operation is: slot, record, query
	ops        []float64 // µs per operation, reduced across passes
	throughput float64   // operations (or records) per second; see README
	attempted  int
	failed     int
	passMeans  []float64          // per-pass mean op time, for bench.pass_spread_frac
	detail     map[string]float64 // workload-specific extras, printed to stderr
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	run(seed int64, seconds float64, tr *tracer) (*measured, error)
}

var workloads = map[string]workload{
	"dl16":      slotWorkload{name: "dl16", nUE: 16, slots: 8000},
	"dl128":     slotWorkload{name: "dl128", nUE: 128, slots: 5000},
	"ul16":      slotWorkload{name: "ul16", nUE: 16, slots: 8000, uplink: true},
	"deliver16": deliverWorkload{slots: 2400},
	"metro":     metroWorkload{},
}

// endToEnd reduces a measurement to the end-to-end metrics.
func endToEnd(m *measured) (map[string]metric, error) {
	sorted := sortedCopy(m.ops)
	p50, err := percentile(sorted, 50)
	if err != nil {
		return nil, err
	}
	p95, err := percentile(sorted, 95)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":          {median(m.setupS), "s"},
		"op_mean_us":       {mean(m.ops), "us"},
		"op_p50_us":        {p50, "us"},
		"op_p95_us":        {p95, "us"},
		"throughput_per_s": {m.throughput, "1/s"},
	}, nil
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is a result as kept in bench/out/results.json and in the
// committed baselines.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	NProc    int     `json:"nproc"`
	Go       string  `json:"go"`
	result
}

type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

func main() {
	name := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 14, "how long one run measures")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes bench/out/trace.json")
	cmp := flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0, *cmp, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced, cmp bool, args []string) error {
	if cmp {
		if len(args) != 2 {
			return errors.New("-compare takes two results files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected argument %q", args[0])
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %v: need at least 1", seconds)
	}
	names := []string{name}
	if name == "" {
		names = names[:0]
		for _, w := range workloadDecls {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		w, ok := workloads[n]
		if !ok {
			return fmt.Errorf("unknown workload %q", n)
		}
		rec, err := runWorkload(n, w, seed, seconds, traced)
		if err != nil {
			return err
		}
		if err := appendResult(filepath.Join(outDir, "results.json"), rec); err != nil {
			return err
		}
		line, err := json.Marshal(rec.result)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// runWorkload runs one workload untraced for the end-to-end metrics or,
// traced, splits the run into an untraced and a traced half (their
// difference is the tracing overhead) and then probes every layer.
func runWorkload(name string, w workload, seed int64, seconds float64, traced bool) (runRecord, error) {
	rec := runRecord{Workload: name, Seed: seed, Seconds: seconds, Traced: traced, NProc: runtime.NumCPU(), Go: runtime.Version()}
	if traced {
		seconds /= 2
	}
	m, err := w.run(seed, seconds, nil)
	if err != nil {
		return rec, err
	}
	if m.attempted < 1 || float64(m.failed) > maxFailedFrac*float64(m.attempted) {
		return rec, fmt.Errorf("%s: %d of %d operations failed", name, m.failed, m.attempted)
	}
	rec.Correct, rec.Attempted, rec.Failed = true, m.attempted, m.failed
	if rec.Metrics, err = endToEnd(m); err != nil {
		return rec, fmt.Errorf("%s: %w", name, err)
	}
	decls := endToEndDecls
	if traced {
		decls = perLayerDecls
		if rec.Metrics, err = perLayer(name, w, seed, seconds, m); err != nil {
			return rec, fmt.Errorf("%s: %w", name, err)
		}
	}
	if err := checkDeclared(rec.Metrics, decls); err != nil {
		return rec, fmt.Errorf("%s: %w", name, err)
	}
	report(os.Stderr, rec, m, decls)
	return rec, nil
}

// perLayer is the traced part of a traced run.
func perLayer(name string, w workload, seed int64, seconds float64, untraced *measured) (map[string]metric, error) {
	tr := newTracer()
	m, err := w.run(seed, seconds, tr)
	if err != nil {
		return nil, err
	}
	nUE := 16
	if sw, ok := w.(slotWorkload); ok {
		nUE = sw.nUE
	}
	metrics, table, err := runProbes(seed, nUE, tr)
	if err != nil {
		return nil, err
	}
	printCostTable(os.Stderr, table)
	metrics["bench.trace_overhead_frac"] = metric{mean(m.ops)/mean(untraced.ops) - 1, "frac"}
	metrics["bench.pass_spread_frac"] = metric{quartileSpread(untraced.passMeans), "frac"}
	return metrics, writeJSON(filepath.Join(outDir, "trace.json"), traceFile{
		Workload: name, Seed: seed, SelfNs: tr.selfTimes(), CostTable: table, Metrics: metrics, Spans: tr.spans,
	})
}

// report prints every metric by name with its unit, for people.
func report(out *os.File, rec runRecord, m *measured, decls []decl) {
	fmt.Fprintf(out, "%s seed=%d seconds=%g traced=%v: %d %ss, %d of %d operations failed\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, len(m.ops), m.opName, rec.Failed, rec.Attempted)
	for _, d := range decls {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
	keys := make([]string, 0, len(m.detail))
	for k := range m.detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  (%s %g)\n", k, m.detail[k])
	}
}

// printCostTable lists the layers under core.ProcessSlot, largest
// first: what one call costs, how many a slot makes, and the product.
func printCostTable(out *os.File, rows []costRow) {
	rows = append([]costRow(nil), rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].NsPerSlot > rows[j].NsPerSlot })
	fmt.Fprintf(out, "  cost table (probe recording)  %12s %12s %12s %7s\n", "ns/call", "calls/slot", "ns/slot", "share")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-30s %12.1f %12.3f %12.1f %6.1f%%\n", r.Layer, r.UnitNs, r.PerSlot, r.NsPerSlot, 100*r.ShareOfSum)
	}
}

// appendResult adds a run to a results file, creating it if needed.
func appendResult(path string, rec runRecord) error {
	var file resultsFile
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	file.Runs = append(file.Runs, rec)
	return writeJSON(path, file)
}
