package pump

// End-to-end tests: real bus → pump sink → httptest backend, where each
// backend decodes its wire format for real (snappy + proto walk, line
// protocol, OTLP JSON) and the decoded samples are compared one-for-one
// with the published records.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/obs"
	"nrscope/internal/phy"
	"nrscope/internal/shard"
	"nrscope/internal/telemetry"
)

// promBackend decodes remote-write frames as a real TSDB would.
type promBackend struct {
	mu       sync.Mutex
	series   []promSeries
	requests int
	headers  http.Header // first request's headers
	queries  []string
}

func (pb *promBackend) snapshot() ([]promSeries, int, http.Header) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	return append([]promSeries(nil), pb.series...), pb.requests, pb.headers
}

func (pb *promBackend) handler(t *testing.T) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("backend read: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		raw, err := snappyDecode(body)
		if err != nil {
			t.Errorf("backend snappy: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		series, err := parseWriteRequest(raw)
		if err != nil {
			t.Errorf("backend proto: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		pb.mu.Lock()
		if pb.requests == 0 {
			pb.headers = r.Header.Clone()
		}
		pb.requests++
		pb.series = append(pb.series, series...)
		pb.queries = append(pb.queries, r.URL.RawQuery)
		pb.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}
}

// subscribePump wires a pump sink into a bus with its spec tuning, the
// way cmd/nrscope does. The subscription's Stats are the pump's
// delivery ledger.
func subscribePump(t *testing.T, b *bus.Bus, snk *Sink, tun Tuning, extra ...bus.SubOption) *bus.Subscription {
	t.Helper()
	policy := bus.DropOldest
	if tun.Block {
		policy = bus.Block
	}
	opts := append([]bus.SubOption{
		bus.WithQueueSize(tun.Queue),
		bus.WithBatch(tun.Batch, tun.Flush),
	}, extra...)
	sub, err := b.Subscribe(snk.Name(), policy, snk, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestE2EPromRW(t *testing.T) {
	backend := &promBackend{}
	srv := httptest.NewServer(backend.handler(t))
	defer srv.Close()

	snk, tun, err := FromSpec("promrw",
		srv.URL+"?name=e2e_promrw&epoch_ms=1723113600000&token=sesame&flush=5ms")
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New()
	sub := subscribePump(t, b, snk, tun)
	base := sub.Stats()

	recs := testRecords(25)
	for _, r := range recs {
		if err := b.Publish(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	series, _, headers := backend.snapshot()
	checkPromSeries(t, series, expectedSamples(recs, 1723113600000))
	for header, want := range map[string]string{
		"Content-Type":                      "application/x-protobuf",
		"Content-Encoding":                  "snappy",
		"X-Prometheus-Remote-Write-Version": "0.1.0",
		"Authorization":                     "Bearer sesame",
		"User-Agent":                        "nrscope-pump/promrw",
	} {
		if got := headers.Get(header); got != want {
			t.Errorf("%s = %q, want %q", header, got, want)
		}
	}
	st := sub.Stats()
	if got, want := st.Delivered-base.Delivered, int64(len(recs)); got != want {
		t.Errorf("Delivered = %d, want %d", got, want)
	}
	if got := st.Dropped - base.Dropped; got != 0 {
		t.Errorf("Dropped = %d, want 0", got)
	}
}

func TestE2EPromRWFrameSplit(t *testing.T) {
	backend := &promBackend{}
	srv := httptest.NewServer(backend.handler(t))
	defer srv.Close()

	// 1 KiB frames force a large batch to split into several POSTs.
	snk, tun, err := FromSpec("promrw",
		srv.URL+"?name=e2e_split&epoch_ms=0&frame_kb=1&batch=512&flush=5ms")
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New()
	sub := subscribePump(t, b, snk, tun)
	base := sub.Stats()

	recs := testRecords(120)
	for _, r := range recs {
		if err := b.Publish(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	series, requests, _ := backend.snapshot()
	if requests < 2 {
		t.Fatalf("frame_kb=1 produced %d requests, want a split (>= 2)", requests)
	}
	checkPromSeries(t, series, expectedSamples(recs, 0))
	if got, want := sub.Stats().Delivered-base.Delivered, int64(len(recs)); got != want {
		t.Errorf("Delivered = %d, want %d", got, want)
	}
}

func TestE2EInflux(t *testing.T) {
	var (
		mu     sync.Mutex
		points []influxPoint
		query  string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got, err := parseInflux(string(body))
		if err != nil {
			t.Errorf("backend: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		points = append(points, got...)
		query = r.URL.Path + "?" + r.URL.RawQuery
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	snk, tun, err := FromSpec("influx",
		srv.URL+"?bucket=nr&org=lab&name=e2e_influx&epoch_ms=1723113600000&flush=5ms")
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New()
	subscribePump(t, b, snk, tun)

	recs := testRecords(19)
	for _, r := range recs {
		if err := b.Publish(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, want := range []string{"/api/v2/write", "bucket=nr", "org=lab", "precision=ms"} {
		if !strings.Contains(query, want) {
			t.Errorf("request %q lacks %s", query, want)
		}
	}
	if len(points) != len(recs) {
		t.Fatalf("decoded %d points, want %d", len(points), len(recs))
	}
	for i := range points {
		r := &recs[i]
		p := points[i]
		if p.tags["dir"] != dirString(r) || p.tags["rnti"] != string(appendRNTI(nil, r.RNTI)) ||
			p.ms != recordMs(1723113600000, r) {
			t.Fatalf("point %d = %+v for record %+v", i, p, r)
		}
		for fi := range fieldDefs {
			if p.fields[fieldDefs[fi].influx] != fieldDefs[fi].get(r) {
				t.Fatalf("point %d field %s = %v, want %v",
					i, fieldDefs[fi].influx, p.fields[fieldDefs[fi].influx], fieldDefs[fi].get(r))
			}
		}
	}
}

func TestE2EOTLP(t *testing.T) {
	var (
		mu     sync.Mutex
		points []otlpPoint
		path   string
		ctype  string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got, err := decodeOTLPBody(body)
		if err != nil {
			t.Errorf("backend: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		points = append(points, got...)
		path = r.URL.Path
		ctype = r.Header.Get("Content-Type")
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	snk, tun, err := FromSpec("otlp", srv.URL+"?name=e2e_otlp&epoch_ms=1723113600000&flush=5ms")
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New()
	subscribePump(t, b, snk, tun)

	recs := testRecords(9)
	for _, r := range recs {
		if err := b.Publish(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if path != "/v1/metrics" {
		t.Errorf("path = %q, want /v1/metrics", path)
	}
	if ctype != "application/json" {
		t.Errorf("Content-Type = %q", ctype)
	}
	// Samples may arrive split across frames; regroup both sides
	// record-major for a stable comparison.
	want := map[otlpPoint]int{}
	for _, w := range expectedSamples(recs, 1723113600000) {
		want[otlpPoint{
			metric: fieldDefs[w.metricIdx].otlp,
			dir:    w.dir, rnti: w.rnti, value: w.value, ns: w.ms * 1e6,
		}]++
	}
	got := map[otlpPoint]int{}
	for _, p := range points {
		got[p]++
	}
	if len(points) != 4*len(recs) {
		t.Fatalf("decoded %d datapoints, want %d", len(points), 4*len(recs))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("datapoint %+v seen %d times, want %d", k, got[k], n)
		}
	}
}

// TestE2EFlakyBackend drives the full failure lifecycle — healthy →
// erroring (retry, then quarantine) → recovered — and closes the
// accounting: every published record is either Sent or Dropped. The
// subscription runs the bus defaults a pump gets in production: 3
// retries per batch, quarantine after 3 failed batches, 2 s cooldown.
func TestE2EFlakyBackend(t *testing.T) {
	var failing atomic.Bool
	var calls, errors atomic.Int64
	backend := &promBackend{}
	decode := backend.handler(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if failing.Load() {
			errors.Add(1)
			http.Error(w, "tsdb down", http.StatusInternalServerError)
			return
		}
		decode(w, r)
	}))
	defer srv.Close()

	snk, tun, err := FromSpec("promrw", srv.URL+"?name=e2e_flaky&epoch_ms=0&batch=1&flush=2ms")
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New()
	sub := subscribePump(t, b, snk, tun)
	base := sub.Stats()
	sent := func() int64 { return sub.Stats().Delivered - base.Delivered }
	dropped := func() int64 { return sub.Stats().Dropped - base.Dropped }

	published := 0
	publish := func(i int) {
		t.Helper()
		if err := b.Publish(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		published++
	}

	// Healthy: first record lands.
	publish(0)
	waitFor(t, "first delivery", func() bool { return sent() == 1 })

	// Backend dies: three consecutive batch failures (each retried)
	// trip the quarantine.
	failing.Store(true)
	publish(1)
	waitFor(t, "first failure drop", func() bool { return dropped() == 1 })
	publish(2)
	waitFor(t, "second failure drop", func() bool { return dropped() == 2 })
	publish(3)
	waitFor(t, "quarantine", func() bool { return sub.Stats().Quarantines-base.Quarantines == 1 })

	// In quarantine: dropped without touching the backend.
	before := calls.Load()
	publish(4)
	waitFor(t, "quarantine drop", func() bool { return dropped() == 4 })
	if calls.Load() != before {
		t.Errorf("quarantined batch hit the backend (%d calls)", calls.Load()-before)
	}

	// Cooldown passes, backend recovers: deliveries resume.
	failing.Store(false)
	time.Sleep(2*time.Second + 10*time.Millisecond)
	publish(5)
	waitFor(t, "recovery delivery", func() bool { return sent() == 2 })

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	if got := sent() + dropped(); got != int64(published) {
		t.Errorf("sent(%d) + dropped(%d) = %d, want published %d",
			sent(), dropped(), got, published)
	}
	if errors.Load() < 2 {
		t.Errorf("backend saw %d errors, want >= 2 (one per failed attempt)", errors.Load())
	}
	if retries := sub.Stats().Retries - base.Retries; retries < 2 {
		t.Errorf("Stats.Retries = %d, want >= 2", retries)
	}
	// The recovered record decoded correctly through the same backend.
	r5 := testRecord(5)
	series, _, _ := backend.snapshot()
	found := false
	for _, ts := range series {
		if ts.label("__name__") != fieldDefs[0].prom {
			continue
		}
		for _, s := range ts.samples {
			if s.ms == recordMs(0, &r5) {
				found = true
			}
		}
	}
	if !found {
		t.Error("post-recovery record never reached the backend")
	}
}

// TestE2EMetroAccounting runs the headline scenario from the issue: a
// 4-shard supervisor fanning into a promrw pump, with the ledger closed
// against the bus's published counter: sent + dropped == published.
func TestE2EMetroAccounting(t *testing.T) {
	backend := &promBackend{}
	srv := httptest.NewServer(backend.handler(t))
	defer srv.Close()

	snk, tun, err := FromSpec("promrw",
		srv.URL+"?name=e2e_metro&epoch_ms=0&flush=5ms&batch=128&queue=8192")
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New()
	sub := subscribePump(t, b, snk, tun)

	sup := shard.New(shard.Config{Shards: 4, Bus: b})
	load, err := shard.NewMetroLoad(12, 6, phy.Mu1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := load.Register(sup); err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}

	published0 := obs.Default.Snapshot()["nrscope_bus_published_total"]
	base := sub.Stats()
	for slot := 0; slot < 200; slot++ {
		load.Slot(slot, func(cell uint16, rec telemetry.Record) {
			if err := sup.Ingest(cell, rec); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := sup.Close(); err != nil { // drains shard queues into the bus
		t.Fatal(err)
	}
	if err := b.Close(); err != nil { // drains the pump subscription
		t.Fatal(err)
	}

	published := int64(obs.Default.Snapshot()["nrscope_bus_published_total"] - published0)
	st := sub.Stats()
	sent := st.Delivered - base.Delivered
	dropped := st.Dropped - base.Dropped
	if published == 0 {
		t.Fatal("metro load published nothing")
	}
	if sent+dropped != published {
		t.Errorf("sent(%d) + dropped(%d) = %d, want published %d",
			sent, dropped, sent+dropped, published)
	}
	series, requests, _ := backend.snapshot()
	if got, want := int64(len(series)), sent*int64(len(fieldDefs)); got != want {
		t.Errorf("backend decoded %d series, want %d (4 per sent record)", got, want)
	}
	t.Logf("metro: published=%d sent=%d dropped=%d frames=%d", published, sent, dropped, requests)
}
