package pump

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"nrscope/internal/raceflag"
	"nrscope/internal/telemetry"
)

// testRecord fabricates a varied record stream (direction, RNTI, sizes
// and retransmissions all cycle).
func testRecord(i int) telemetry.Record {
	return telemetry.Record{
		SlotIdx:  i,
		RNTI:     uint16(0x4601 + i%7),
		Downlink: i%3 != 0,
		TBS:      1000 + 37*i,
		NumPRB:   1 + i%24,
		MCS:      i % 28,
		IsRetx:   i%5 == 0,
		TMs:      float64(i) * 0.5,
	}
}

func testRecords(n int) []telemetry.Record {
	recs := make([]telemetry.Record, n)
	for i := range recs {
		recs[i] = testRecord(i)
	}
	return recs
}

// checkPromSeries asserts decoded remote-write series equal the
// expected samples, one single-sample TimeSeries per expected entry,
// labels in spec-sorted order.
func checkPromSeries(t *testing.T, series []promSeries, want []expectedSample) {
	t.Helper()
	if len(series) != len(want) {
		t.Fatalf("decoded %d timeseries, want %d", len(series), len(want))
	}
	for i, ts := range series {
		w := want[i]
		if len(ts.samples) != 1 {
			t.Fatalf("series %d has %d samples, want 1", i, len(ts.samples))
		}
		for j := 1; j < len(ts.labels); j++ {
			if ts.labels[j-1][0] >= ts.labels[j][0] {
				t.Fatalf("series %d labels not sorted: %v", i, ts.labels)
			}
		}
		if got := ts.label("__name__"); got != fieldDefs[w.metricIdx].prom {
			t.Fatalf("series %d __name__ = %q, want %q", i, got, fieldDefs[w.metricIdx].prom)
		}
		if got := ts.label("dir"); got != w.dir {
			t.Fatalf("series %d dir = %q, want %q", i, got, w.dir)
		}
		if got := ts.label("rnti"); got != w.rnti {
			t.Fatalf("series %d rnti = %q, want %q", i, got, w.rnti)
		}
		if s := ts.samples[0]; s.value != w.value || s.ms != w.ms {
			t.Fatalf("series %d sample = (%v, %d), want (%v, %d)", i, s.value, s.ms, w.value, w.ms)
		}
	}
}

func TestPromRWEncoderRoundTrip(t *testing.T) {
	enc := &PromRW{BaseMs: 1_723_113_600_000}
	recs := testRecords(17)
	for i := range recs {
		enc.Append(&recs[i])
	}
	if enc.Records() != len(recs) {
		t.Fatalf("Records = %d, want %d", enc.Records(), len(recs))
	}
	raw, err := snappyDecode(enc.Frame())
	if err != nil {
		t.Fatal(err)
	}
	series, err := parseWriteRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	checkPromSeries(t, series, expectedSamples(recs, enc.BaseMs))

	// Reset reuses the buffers and drops the pending records.
	enc.Reset()
	if enc.Records() != 0 || enc.Len() != 0 {
		t.Fatalf("Reset left %d records / %d bytes", enc.Records(), enc.Len())
	}
	enc.Append(&recs[3])
	raw, err = snappyDecode(enc.Frame())
	if err != nil {
		t.Fatal(err)
	}
	series, err = parseWriteRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	checkPromSeries(t, series, expectedSamples(recs[3:4], enc.BaseMs))
}

// TestSnappyMultiChunk: bodies past the 64 KiB literal cap still
// round-trip (multiple literal chunks, 2-byte length form).
func TestSnappyMultiChunk(t *testing.T) {
	enc := &PromRW{}
	recs := testRecords(400) // ~4 series * ~70 B each -> > 64 KiB
	for i := range recs {
		enc.Append(&recs[i])
	}
	if enc.Len() <= snappyMaxLiteral {
		t.Fatalf("test body only %d bytes; grow it past %d", enc.Len(), snappyMaxLiteral)
	}
	raw, err := snappyDecode(enc.Frame())
	if err != nil {
		t.Fatal(err)
	}
	series, err := parseWriteRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	checkPromSeries(t, series, expectedSamples(recs, 0))
}

func TestInfluxEncoderRoundTrip(t *testing.T) {
	enc := &Influx{BaseMs: 1_723_113_600_000}
	recs := testRecords(11)
	for i := range recs {
		enc.Append(&recs[i])
	}
	points, err := parseInflux(string(enc.Frame()))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(recs) {
		t.Fatalf("decoded %d points, want %d", len(points), len(recs))
	}
	for i, p := range points {
		r := &recs[i]
		if p.measurement != "nrscope_dci" {
			t.Fatalf("point %d measurement = %q", i, p.measurement)
		}
		if p.tags["dir"] != dirString(r) || p.tags["rnti"] != string(appendRNTI(nil, r.RNTI)) {
			t.Fatalf("point %d tags = %v", i, p.tags)
		}
		if p.ms != recordMs(enc.BaseMs, r) {
			t.Fatalf("point %d ms = %d, want %d", i, p.ms, recordMs(enc.BaseMs, r))
		}
		for fi := range fieldDefs {
			f := &fieldDefs[fi]
			got, ok := p.fields[f.influx]
			if !ok || got != f.get(r) {
				t.Fatalf("point %d field %s = %v (present=%v), want %v", i, f.influx, got, ok, f.get(r))
			}
		}
	}
}

func TestInfluxEncoderGoldenLine(t *testing.T) {
	enc := &Influx{}
	r := telemetry.Record{RNTI: 0x4601, Downlink: true, TBS: 5640, NumPRB: 24, MCS: 12, TMs: 123.7}
	enc.Append(&r)
	want := "nrscope_dci,dir=dl,rnti=0x4601 tbs_bits=5640,prbs=24,mcs=12,retx=0 123\n"
	if got := string(enc.Frame()); got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
}

func TestOTLPEncoderRoundTrip(t *testing.T) {
	enc := &OTLP{BaseMs: 1_723_113_600_000}
	recs := testRecords(13)
	for i := range recs {
		enc.Append(&recs[i])
	}
	points, err := decodeOTLPBody(enc.Frame())
	if err != nil {
		t.Fatal(err)
	}
	want := expectedSamples(recs, enc.BaseMs)
	// decodeOTLPBody returns points grouped by metric; regroup the
	// record-major expectations to match.
	var regrouped []expectedSample
	for fi := range fieldDefs {
		for _, w := range want {
			if w.metricIdx == fi {
				regrouped = append(regrouped, w)
			}
		}
	}
	if len(points) != len(regrouped) {
		t.Fatalf("decoded %d datapoints, want %d", len(points), len(regrouped))
	}
	for i, p := range points {
		w := regrouped[i]
		if p.metric != fieldDefs[w.metricIdx].otlp || p.dir != w.dir || p.rnti != w.rnti ||
			p.value != w.value || p.ns != w.ms*1e6 {
			t.Fatalf("datapoint %d = %+v, want %+v", i, p, w)
		}
	}
}

func TestSpecPromRWDefaults(t *testing.T) {
	s, tun, err := FromSpec("promrw", "http://tsdb:9090/api/v1/write?epoch_ms=5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "promrw" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.URL() != "http://tsdb:9090/api/v1/write" {
		t.Errorf("URL = %q", s.URL())
	}
	if got := s.header.Get("X-Prometheus-Remote-Write-Version"); got != "0.1.0" {
		t.Errorf("remote-write version header = %q", got)
	}
	if enc, ok := s.enc.(*PromRW); !ok || enc.BaseMs != 5 {
		t.Errorf("encoder = %#v, want PromRW with BaseMs 5", s.enc)
	}
	if tun.Queue != 4096 || tun.Batch != 256 || tun.Flush != 100*time.Millisecond || tun.Block {
		t.Errorf("tuning = %+v", tun)
	}
}

func TestSpecInfluxURLRewrite(t *testing.T) {
	s, _, err := FromSpec("influx", "http://db:8086?bucket=nr&org=lab&measurement=dci&name=lab_influx")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s.URL(), "http://db:8086/api/v2/write?") {
		t.Fatalf("URL = %q, want the /api/v2/write path", s.URL())
	}
	for _, want := range []string{"bucket=nr", "org=lab", "precision=ms"} {
		if !strings.Contains(s.URL(), want) {
			t.Errorf("URL %q lacks %s", s.URL(), want)
		}
	}
	if strings.Contains(s.URL(), "measurement=") || strings.Contains(s.URL(), "name=") {
		t.Errorf("URL %q leaked consumed pump options", s.URL())
	}
	if s.Name() != "lab_influx" {
		t.Errorf("Name = %q", s.Name())
	}
	if enc, ok := s.enc.(*Influx); !ok || enc.Measurement != "dci" {
		t.Errorf("encoder = %#v, want Influx with measurement dci", s.enc)
	}
	if _, _, err := FromSpec("influx", "http://db:8086"); err == nil {
		t.Error("influx spec without bucket succeeded")
	}
}

func TestSpecOTLPDefaultPath(t *testing.T) {
	s, _, err := FromSpec("otlp", "http://collector:4318")
	if err != nil {
		t.Fatal(err)
	}
	if s.URL() != "http://collector:4318/v1/metrics" {
		t.Errorf("URL = %q", s.URL())
	}
}

func TestSpecTuningAndErrors(t *testing.T) {
	_, tun, err := FromSpec("otlp", "http://c:4318?batch=32&flush=5ms&queue=64&block=true&frame_kb=256&timeout=2s")
	if err != nil {
		t.Fatal(err)
	}
	if tun.Batch != 32 || tun.Flush != 5*time.Millisecond || tun.Queue != 64 || !tun.Block {
		t.Errorf("tuning = %+v", tun)
	}
	// Each cap is itself accepted.
	s, tun, err := FromSpec("promrw", fmt.Sprintf("http://x?queue=%d&batch=%d&frame_kb=%d", maxQueue, maxQueue, maxFrameKB))
	if err != nil {
		t.Fatal(err)
	}
	if tun.Queue != maxQueue || tun.Batch != maxQueue || s.maxFrame != maxFrameKB<<10 {
		t.Errorf("tuning at the caps = %+v, frame %d", tun, s.maxFrame)
	}
	for _, spec := range []struct{ kind, arg string }{
		{"kafka", "http://x"},
		{"promrw", "tsdb:9090"},
		{"promrw", "http://x?batch=-1"},
		{"promrw", "http://x?flush=fast"},
		{"promrw", "http://x?epoch_ms=yesterday"},
		{"influx", "http://x?bucket=b&queue=zero"},
		{"promrw", "http://x?queue=1099511627776"}, // a 2^40-record ring
		{"promrw", fmt.Sprintf("http://x?queue=%d", maxQueue+1)},
		{"promrw", "http://x?batch=8192"}, // above the default queue
		{"otlp", "http://x?queue=64&batch=65"},
		{"otlp", fmt.Sprintf("http://x?frame_kb=%d", maxFrameKB+1)},
		{"otlp", "http://x?frame_kb=9007199254740993"}, // overflows << 10
		{"promrw", "http://x?measurement=m"},
	} {
		if _, _, err := FromSpec(spec.kind, spec.arg); err == nil {
			t.Errorf("FromSpec(%q, %q) succeeded, want error", spec.kind, spec.arg)
		}
	}
}

func TestSpecAuthHook(t *testing.T) {
	s, _, err := FromSpec("promrw", "http://x?token=sesame")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.header.Get("Authorization"); got != "Bearer sesame" {
		t.Errorf("token= header = %q", got)
	}

	t.Setenv("NRSCOPE_TEST_TOKEN", "from-env")
	s, _, err = FromSpec("promrw", "http://x?token_env=NRSCOPE_TEST_TOKEN")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.header.Get("Authorization"); got != "Bearer from-env" {
		t.Errorf("token_env= header = %q", got)
	}
	if _, _, err := FromSpec("promrw", "http://x?token_env=NRSCOPE_UNSET_TOKEN"); err == nil {
		t.Error("token_env naming an unset variable succeeded")
	}

	t.Setenv(AuthEnv, "Basic Zm9vOmJhcg==")
	s, _, err = FromSpec("promrw", "http://x")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.header.Get("Authorization"); got != "Basic Zm9vOmJhcg==" {
		t.Errorf("%s fallback header = %q", AuthEnv, got)
	}
}

// TestEncoderSteadyStateAllocFree: after warm-up, a full
// Reset/Append.../Frame cycle allocates nothing, for every encoder —
// the property the CI bench gate enforces on the promrw path.
func TestEncoderSteadyStateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc assertions are meaningless")
	}
	recs := testRecords(64)
	for _, enc := range []Encoder{
		&PromRW{BaseMs: 1_723_113_600_000},
		&Influx{BaseMs: 1_723_113_600_000},
		&OTLP{BaseMs: 1_723_113_600_000},
	} {
		cycle := func() {
			enc.Reset()
			for i := range recs {
				enc.Append(&recs[i])
			}
			if len(enc.Frame()) == 0 {
				t.Fatal("empty frame")
			}
		}
		cycle() // warm the buffers
		cycle()
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Errorf("%s: %v allocs per encode cycle, want 0", enc.Kind(), allocs)
		}
	}
}

// otlpPoint is decodeOTLPBody's flat view of one dataPoint.
type otlpPoint struct {
	metric string
	dir    string
	rnti   string
	value  float64
	ns     int64
}

// decodeOTLPBody unmarshals an OTLP/HTTP JSON body into metric-major
// dataPoint order.
func decodeOTLPBody(body []byte) ([]otlpPoint, error) {
	req, err := unmarshalOTLP(body)
	if err != nil {
		return nil, err
	}
	var out []otlpPoint
	for _, rm := range req.ResourceMetrics {
		for _, sm := range rm.ScopeMetrics {
			for _, m := range sm.Metrics {
				for _, dp := range m.Gauge.DataPoints {
					ns, err := strconv.ParseInt(dp.TimeUnixNano, 10, 64)
					if err != nil {
						return nil, err
					}
					out = append(out, otlpPoint{
						metric: m.Name,
						dir:    otlpAttrValue(dp.Attributes, "dir"),
						rnti:   otlpAttrValue(dp.Attributes, "rnti"),
						value:  dp.AsDouble,
						ns:     ns,
					})
				}
			}
		}
	}
	return out, nil
}
