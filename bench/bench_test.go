package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"nrscope/internal/dci"
	"nrscope/internal/ran"
	"nrscope/internal/telemetry"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	v := make([]float64, 999)
	for i := range v {
		v[i] = float64(i)
	}
	if _, err := percentile(v, 99); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	v = append(v, 999)
	got, err := percentile(v, 99)
	if err != nil || got != 989 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989", got, err)
	}
	if got, err := percentile([]float64{1, 2, 3}, 50); err != nil || got != 2 {
		t.Errorf("p50 of 1,2,3 = %v, %v; want 2", got, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples must fail")
	}
}

func TestPassReducers(t *testing.T) {
	// Three passes over four operations; pass 1 was disturbed on op 2,
	// pass 2 on op 0.
	m := [][]float64{
		{10, 20, 30, 40},
		{11, 19, 90, 41},
		{70, 21, 31, 39},
	}
	if got, want := bestOfPasses(m), []float64{10, 19, 30, 39}; !reflect.DeepEqual(got, want) {
		t.Errorf("bestOfPasses = %v, want %v", got, want)
	}
	if got, want := medianOfPasses(m), []float64{11, 20, 31, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("medianOfPasses = %v, want %v", got, want)
	}
	if m[1][2] != 90 {
		t.Error("reducers must not modify their input")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{4, 1, 2}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of three = %v, want %v", got, want)
	}
}

// tinyDL is dl16's replay at a scale a test can afford.
var tinyDL = slotWorkload{name: "tiny", nUE: 4, slots: 400}

func TestRecordingRepeatsForASeed(t *testing.T) {
	type outcome struct {
		digest  uint64
		records int
		mallocs uint64
	}
	replay := func(seed int64) outcome {
		rec := &recording{slots: make([]slotRec, tinyDL.slots)}
		if err := tinyDL.setup(rec, seed); err != nil {
			t.Fatal(err)
		}
		// The first pass grows pools the second finds warm; compare
		// second passes.
		var pass *passResult
		for i := 0; i < 2; i++ {
			runtime.GC()
			var err error
			if pass, err = tinyDL.pass(rec, i, -1, nil); err != nil {
				t.Fatal(err)
			}
		}
		return outcome{rec.digest, pass.records, pass.mallocs}
	}
	a, b, c := replay(7), replay(7), replay(8)
	if a.digest != b.digest || a.records != b.records {
		t.Errorf("seed 7 twice: %+v and %+v", a, b)
	}
	if a.records == 0 {
		t.Error("seed 7 decoded to nothing")
	}
	// A garbage collection inside a pass empties the scope's pools and
	// costs a few dozen allocations; beyond that the count is exact.
	if d := math.Abs(float64(a.mallocs) - float64(b.mallocs)); d > 0.03*float64(a.mallocs) {
		t.Errorf("seed 7 twice allocated %d and %d times", a.mallocs, b.mallocs)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 7 and 8 share digest %x", a.digest)
	}
}

func TestCheckDownlinkCountsMissesAndGhosts(t *testing.T) {
	gt := func(slot int, rnti uint16, dl bool, tbs int, common bool) ran.GTRecord {
		return ran.GTRecord{SlotIdx: slot, RNTI: rnti, Grant: dci.Grant{Downlink: dl, TBS: tbs}, Common: common}
	}
	slots := []slotRec{
		{GT: []ran.GTRecord{gt(5, 0x4601, true, 100, false), gt(5, 0x4602, false, 200, false), gt(5, 0xFFFF, true, 300, true)}},
		{GT: []ran.GTRecord{gt(6, 0x4601, true, 100, false)}},
	}
	rec := func(slot int, rnti uint16, dl bool, tbs int) telemetry.Record {
		return telemetry.Record{SlotIdx: slot, RNTI: rnti, Downlink: dl, TBS: tbs}
	}
	all := []telemetry.Record{rec(5, 0x4601, true, 100), rec(5, 0x4602, false, 200), rec(6, 0x4601, true, 100), {SlotIdx: 5, RNTI: 0xFFFF, Common: true}}
	if a, f := checkDownlink(slots, all); a != 3 || f != 0 {
		t.Errorf("exact decode: %d attempted, %d failed; want 3, 0", a, f)
	}
	// Slot 6's DCI missed; a wrong TBS in slot 5 is a miss and a ghost.
	wrong := []telemetry.Record{rec(5, 0x4601, true, 100), rec(5, 0x4602, false, 201)}
	if a, f := checkDownlink(slots, wrong); a != 4 || f != 3 {
		t.Errorf("one miss, one wrong TBS: %d attempted, %d failed; want 4, 3", a, f)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeAllWorkloads runs every workload at a scale of seconds and
// checks the emitted names against the declarations. The traced run is
// the same code for every workload apart from the UE count the probes
// record at, so two workloads cover it.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Workloads write under out/ in the working directory.
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	defer func(n int) { probeSlots = n }(probeSlots)
	probeSlots = 1500

	small := map[string]workload{
		"dl16":      slotWorkload{name: "dl16", nUE: 16, slots: 1600},
		"dl128":     slotWorkload{name: "dl128", nUE: 128, slots: 1600},
		"ul16":      slotWorkload{name: "ul16", nUE: 16, slots: 3200, uplink: true},
		"deliver16": deliverWorkload{slots: 600},
		"metro":     metroWorkload{},
	}
	for _, decl := range workloadDecls {
		w := small[decl.Name]
		if w == nil {
			t.Fatalf("workload %s is declared and not built", decl.Name)
		}
		for _, traced := range []bool{false, true} {
			if traced && decl.Name != "dl128" && decl.Name != "metro" {
				continue
			}
			rec, err := runWorkload(decl.Name, w, 5, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", decl.Name, traced, err)
			}
			if !rec.Correct || rec.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d", decl.Name, rec.Correct, rec.Attempted)
			}
			for name, m := range rec.Metrics {
				if !nameRE.MatchString(name) || m.Unit == "" {
					t.Errorf("%s: metric %q unit %q", decl.Name, name, m.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", decl.Name, name, m.Value)
				}
			}
			if !traced {
				for name, m := range rec.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, must never be 0", decl.Name, name, m.Value)
					}
				}
			}
		}
	}
	var tf traceFile
	data, err := os.ReadFile(filepath.Join(outDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.CostTable) == 0 || len(tf.SelfNs) == 0 {
		t.Errorf("trace has %d spans, %d cost rows, %d self times", len(tf.Spans), len(tf.CostTable), len(tf.SelfNs))
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []decl `json:"end_to_end"`
	PerLayer []decl `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndDecls) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, endToEndDecls)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerDecls) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", b.PerLayer, perLayerDecls)
	}
	if len(b.Workloads) != len(workloadDecls) {
		t.Fatalf("%d workloads in json, %d in code", len(b.Workloads), len(workloadDecls))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadDecls[i].Name || w.Why != workloadDecls[i].Why {
			t.Errorf("workload %d: json %+v, code %+v", i, w, workloadDecls[i])
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared and not built", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]decl(nil), b.EndToEnd...), b.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v", b.Paths)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale map[string]float64, jitter float64) string {
		var file resultsFile
		for run := 0; run < 3; run++ {
			for _, w := range workloadDecls {
				m := map[string]metric{}
				for _, d := range endToEndDecls {
					v := 100.0 * (1 + jitter*float64(run-1))
					if s, ok := scale[w.Name+"/"+d.Name]; ok {
						v *= s
					}
					m[d.Name] = metric{v, d.Unit}
				}
				file.Runs = append(file.Runs, runRecord{Workload: w.Name, Seed: 1, result: result{Correct: true, Attempted: 1, Metrics: m}})
			}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, file); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", nil, 0.01)
	same := write("b.json", nil, 0.01)
	var out bytes.Buffer
	if err := compareFiles(&out, base, same); err != nil {
		t.Errorf("identical sets: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), " ok "); n != len(workloadDecls)*len(endToEndDecls) {
		t.Errorf("%d ok rows, want one per workload and metric:\n%s", n, out.String())
	}

	// dl16 p50 30 % slower (bound 20 %): worse. metro throughput 40 %
	// higher: better is never worse. ul16 mean noisy beyond its bound:
	// unresolved.
	out.Reset()
	slow := write("c.json", map[string]float64{"dl16/op_p50_us": 1.3, "metro/throughput_per_s": 1.4}, 0.01)
	err := compareFiles(&out, base, slow)
	if !errors.Is(err, errWorse) {
		t.Errorf("a 30 %% slower p50 must fail the comparison, got %v", err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "dl16") && strings.Contains(line, "op_p50_us"):
			if !strings.Contains(line, "worse") {
				t.Errorf("dl16 p50 row: %s", line)
			}
		case strings.HasPrefix(line, "metro") && strings.Contains(line, "throughput_per_s"):
			if !strings.Contains(line, " ok ") {
				t.Errorf("metro throughput row: %s", line)
			}
		}
	}
	out.Reset()
	noisy := write("d.json", nil, 0.4)
	if err := compareFiles(&out, base, noisy); err != nil {
		t.Errorf("noisy set must be unresolved, not worse: %v", err)
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("no unresolved row:\n%s", out.String())
	}
}
