package obs

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "events")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_events_total", "events"); again != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("test_depth", "depth")
	g.Set(7)
	g.Add(-2)
	g.Dec()
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestCounterConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

// TestRegisterWhileScraped: children register (as a TCP sink does per
// accepted connection) while the registry is exposed and snapshotted;
// run under -race.
func TestRegisterWhileScraped(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l := r.With("sink", strconv.Itoa(j%8))
				l.Counter("test_delivered_total", "delivered").Inc()
				l.Histogram("test_flush_seconds", "flush", LatencyBuckets).Observe(1e-4)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		r.Snapshot()
	}
	wg.Wait()
	snap := r.Snapshot()
	var total float64
	for j := 0; j < 8; j++ {
		total += snap[`test_delivered_total{sink="`+strconv.Itoa(j)+`"}`]
	}
	if total != 800 {
		t.Errorf("children counted %v, want 800", total)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.005, 0.05, 0.5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 0.5555; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	bounds, counts := h.Buckets()
	wantCounts := []int64{1, 2, 3} // cumulative
	for i := range bounds {
		if counts[i] != wantCounts[i] {
			t.Errorf("bucket le=%g count = %d, want %d", bounds[i], counts[i], wantCounts[i])
		}
	}
}

func TestSnapshotAndDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "")
	g := r.Gauge("test_gauge", "")
	h := r.Histogram("test_hist", "", []float64{1})

	before := r.Snapshot()
	c.Add(3)
	g.Set(-2)
	h.Observe(0.5)
	h.Observe(2)
	after := r.Snapshot()
	d := Delta(before, after)

	if d["test_total"] != 3 {
		t.Errorf("counter delta = %g, want 3", d["test_total"])
	}
	if d["test_gauge"] != -2 {
		t.Errorf("gauge delta = %g, want -2", d["test_gauge"])
	}
	if d["test_hist_count"] != 2 {
		t.Errorf("hist count delta = %g, want 2", d["test_hist_count"])
	}
	if d["test_hist_sum"] != 2.5 {
		t.Errorf("hist sum delta = %g, want 2.5", d["test_hist_sum"])
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_events_total", "total events").Add(9)
	r.Gauge("test_depth", "queue depth").Set(3)
	h := r.Histogram("test_latency_seconds", "slot latency", []float64{0.001, 0.01})
	h.Observe(0.002)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_events_total total events",
		"# TYPE test_events_total counter",
		"test_events_total 9",
		"# TYPE test_depth gauge",
		"test_depth 3",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.001"} 0`,
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="+Inf"} 1`,
		"test_latency_seconds_sum 0.002",
		"test_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestLabelledExposition: instances registered the way the bus, pump
// and shard instrument sets are (each instance registering every family
// in turn) come out as one # HELP and one # TYPE per family with all of
// the family's series contiguous beneath them, le spliced into a
// histogram child's labels, and label values escaped.
func TestLabelledExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_bus_published_total", "bus-wide").Add(1)
	for _, sink := range []string{"jsonl", `a"b\c` + "\nd"} {
		l := r.With("sink", sink)
		l.Gauge("test_bus_sink_queue_depth", "queued").Set(2)
		l.Counter("test_bus_sink_delivered_total", "delivered").Add(3)
		l.Histogram("test_bus_sink_flush_seconds", "flush", []float64{0.001}).Observe(0.0005)
	}
	for _, pump := range []string{"promrw", "influx"} {
		l := r.With("pump", pump)
		l.Counter("test_pump_frames_sent_total", "frames").Inc()
		l.Counter("test_pump_net_errors_total", "errors")
	}
	for _, shard := range []string{"0", "1"} {
		l := r.With("shard", shard)
		l.Counter("test_shard_ingested_total", "ingested").Inc()
		l.Gauge("test_shard_ues_tracked", "tracked").Set(4)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`test_bus_sink_queue_depth{sink="jsonl"} 2`,
		`test_bus_sink_delivered_total{sink="a\"b\\c\nd"} 3`,
		`test_bus_sink_flush_seconds_bucket{sink="jsonl",le="0.001"} 1`,
		`test_bus_sink_flush_seconds_bucket{sink="a\"b\\c\nd",le="+Inf"} 1`,
		`test_bus_sink_flush_seconds_sum{sink="jsonl"} 0.0005`,
		`test_bus_sink_flush_seconds_count{sink="jsonl"} 1`,
		`test_pump_net_errors_total{pump="influx"} 0`,
		`test_shard_ues_tracked{shard="1"} 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	help, typ := map[string]int{}, map[string]int{}
	done := map[string]bool{} // families whose block has ended
	family := ""
	series := 0
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			help[strings.Fields(name)[0]]++
			continue
		}
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			done[family] = true
			family = strings.Fields(name)[0]
			if done[family] {
				t.Errorf("family %s starts a second block", family)
			}
			typ[family]++
			continue
		}
		name, _, _ := strings.Cut(strings.Fields(line)[0], "{")
		if name != family && name != family+"_bucket" && name != family+"_sum" && name != family+"_count" {
			t.Errorf("series %q outside its family's block (under %s)", line, family)
		}
		series++
	}
	if len(typ) != 8 {
		t.Errorf("exposition has %d families, want 8:\n%s", len(typ), out)
	}
	for f, n := range typ {
		if n != 1 || help[f] != 1 {
			t.Errorf("family %s has %d # HELP and %d # TYPE lines, want one each", f, help[f], n)
		}
	}
	// 1 unlabelled + 2 sinks × (depth, delivered, 2 buckets, sum, count)
	// + 2 pumps × 2 + 2 shards × 2.
	if want := 1 + 2*6 + 4 + 4; series != want {
		t.Errorf("exposition has %d sample lines, want %d", series, want)
	}
	snap := r.Snapshot()
	if snap[`test_shard_ues_tracked{shard="0"}`] != 4 || snap[`test_bus_sink_flush_seconds_count{sink="jsonl"}`] != 1 {
		t.Errorf("snapshot not keyed by series name: %v", snap)
	}
}

func TestHTTPServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_http_total", "via http").Add(5)
	srv, err := ServeRegistry("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "test_http_total 5") {
		t.Errorf("/metrics = %d, body:\n%s", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "{") {
		t.Errorf("/debug/vars = %d, body:\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d, want 200", code)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("test_name", "")
	r.Gauge("test_name", "")
}

func TestLabelNameMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering a family under a second label name did not panic")
		}
	}()
	r := NewRegistry()
	r.With("sink", "a").Counter("test_name", "")
	r.With("pump", "a").Counter("test_name", "")
}
