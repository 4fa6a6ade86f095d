package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nrscope"
	"nrscope/internal/bus"
	"nrscope/internal/telemetry"
)

func TestFormatSinkSummary(t *testing.T) {
	got := formatSinkSummary([]bus.SubStats{
		{Name: "jsonl", Delivered: 1200},
		{Name: "promrw", Delivered: 1180, Dropped: 20, Retries: 6, Failures: 2, Quarantines: 1},
		{Name: "tcp", Delivered: 7, Dropped: 0, Rejected: 3},
	})
	want := []string{
		"sink jsonl: 1200 delivered, 0 dropped",
		"sink promrw: 1180 delivered, 20 dropped, 6 retries, 2 failures, 1 quarantines",
		"sink tcp: 7 delivered, 0 dropped, 3 rejected",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("formatSinkSummary =\n%q\nwant\n%q", got, want)
	}
	if lines := formatSinkSummary(nil); len(lines) != 0 {
		t.Errorf("empty stats produced %q", lines)
	}
}

func TestSetupSinksPump(t *testing.T) {
	var got atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	b, closer, err := setupSinks([]string{"promrw:" + srv.URL + "?name=setup_sinks_test&flush=2ms"}, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b == nil {
		t.Fatal("pump spec returned a nil bus")
	}
	if err := b.Publish(telemetry.Record{RNTI: 0x4601, TBS: 1000}); err != nil {
		t.Fatal(err)
	}
	closer()
	if got.Load() == 0 {
		t.Error("pump never reached the backend")
	}
}

func TestSetupSinksErrors(t *testing.T) {
	for _, specs := range [][]string{
		{"promrw:not-a-url"},
		{"influx:http://db:8086"}, // no bucket
		{"kafka:broker:9092"},
	} {
		if _, _, err := setupSinks(specs, 64, nil); err == nil {
			t.Errorf("setupSinks(%q) succeeded, want error", specs)
		}
	}
	b, closer, err := setupSinks(nil, 64, nil)
	if err != nil || b != nil {
		t.Errorf("no specs: bus=%v err=%v, want nil/nil", b, err)
	}
	closer()
}

// testConfig is the flag defaults a test run needs, on a short capture.
func testConfig(cells ...string) config {
	return config{cells: cells, ues: 2, duration: 400 * time.Millisecond, seed: 5, shards: 1}
}

// TestShardsBelowOneRefused: a shard count below 1 is a flag error,
// refused before a cell, a sink or the supervisor is built.
func TestShardsBelowOneRefused(t *testing.T) {
	for _, n := range []int{0, -1} {
		cfg := testConfig("amarisoft")
		cfg.shards = n
		d := new(deployment)
		err := d.run(cfg)
		if err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Errorf("-shards %d: run returned %v, want a -shards error", n, err)
		}
		if d.cells != nil || d.sup != nil {
			t.Errorf("-shards %d: built %d cells and supervisor %v before refusing", n, len(d.cells), d.sup)
		}
	}
}

// serialRecords is the reference the one run path is held to: the same
// testbeds (same presets, seeds and UEs as openCells builds) stepped
// through Scope.ProcessSlot inline, one cell after the other. Returns
// each cell's slot and record counts.
func serialRecords(t *testing.T, cfg config) (slots, records []int) {
	t.Helper()
	for i, name := range cfg.cells {
		preset, err := presetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := nrscope.NewTestbed(preset, cfg.seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < cfg.ues; u++ {
			tb.AttachUE(nrscope.UEProfile{})
		}
		n, recs := int(cfg.duration/tb.TTI()), 0
		for s := 0; s < n; s++ {
			recs += len(tb.Step().Records)
		}
		slots, records = append(slots, n), append(records, recs)
	}
	return slots, records
}

// runProbed is deployment.run with a probe wrapped around the pool
// handler, so a test sees every slot result in delivery order.
func runProbed(cfg config, probe func(cell uint16, res *nrscope.SlotResult)) (*deployment, error) {
	d := new(deployment)
	err := d.build(cfg)
	if err == nil {
		err = d.decode(func(c *cell, res *nrscope.SlotResult) {
			probe(c.hdr.CellID, res)
			d.handle(c, res)
		})
	}
	if cerr := d.close(err == nil); err == nil {
		err = cerr
	}
	return d, err
}

// TestRunModes drives the one run path end to end in each mode the
// flags can select and holds it to the serial reference: every
// submitted slot decoded, each cell's results in strictly ascending
// slot order, the record counts of an inline Scope.ProcessSlot loop
// over the same seeds, a closed and loss-free shard ledger, and a JSONL
// file holding exactly the published records. Every mode runs a
// supervisor, so every mode is held to the ledger and the file.
func TestRunModes(t *testing.T) {
	sharded := testConfig("amarisoft", "mosolab")
	sharded.shards = 2
	for _, tc := range []struct {
		name string
		cfg  config
	}{
		{"single", testConfig("amarisoft")},
		{"fuse-cell", testConfig("amarisoft", "mosolab")},
		{"shards=2+jsonl", sharded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jsonl := filepath.Join(t.TempDir(), "t.jsonl")
			tc.cfg.sinks = stringList{"jsonl:" + jsonl}
			wantSlots, wantRecords := serialRecords(t, tc.cfg)

			var mu sync.Mutex
			last := map[uint16]int{}
			d, err := runProbed(tc.cfg, func(cell uint16, res *nrscope.SlotResult) {
				mu.Lock()
				defer mu.Unlock()
				if prev, seen := last[cell]; seen && res.SlotIdx <= prev {
					t.Errorf("cell %d: slot %d delivered after slot %d", cell, res.SlotIdx, prev)
				}
				last[cell] = res.SlotIdx
			})
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for i, c := range d.cells {
				if c.submitted != wantSlots[i] || c.decoded != c.submitted {
					t.Errorf("cell %d: submitted %d, decoded %d, want %d of each",
						c.hdr.CellID, c.submitted, c.decoded, wantSlots[i])
				}
				if c.records != wantRecords[i] {
					t.Errorf("cell %d: %d records, serial reference has %d", c.hdr.CellID, c.records, wantRecords[i])
				}
				if c.records == 0 {
					t.Errorf("cell %d decoded no records: the run is too short to test anything", c.hdr.CellID)
				}
				total += c.records
			}
			h := d.sup.Health()
			if h.Dropped != 0 || h.Ingested != h.Applied+h.Dropped {
				t.Errorf("shard ledger: ingested %d, applied %d, dropped %d; want closed and loss-free",
					h.Ingested, h.Applied, h.Dropped)
			}
			if h.Applied < int64(total) {
				t.Errorf("shards applied %d items, fewer than the %d records decoded", h.Applied, total)
			}
			f, err := os.Open(jsonl)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			logged, err := telemetry.ReadAll(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(logged) != total {
				t.Errorf("JSONL sink holds %d records, %d were published", len(logged), total)
			}
		})
	}
}

// TestLakeExitLinesNameTheirShard: a two-shard -lake run prints one
// lake summary line per shard, each naming its shard and directory, so
// the lines can be told apart.
func TestLakeExitLinesNameTheirShard(t *testing.T) {
	cfg := testConfig("amarisoft", "mosolab")
	cfg.shards = 2
	cfg.lakeDir = t.TempDir()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	var out bytes.Buffer
	copied := make(chan struct{})
	go func() {
		_, _ = io.Copy(&out, r)
		close(copied)
	}()
	runErr := new(deployment).run(cfg)
	os.Stderr = stderr
	w.Close()
	<-copied
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}

	lines := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "nrscope: lake ") && strings.Contains(line, " segments, ") {
			lines[line] = true
		}
	}
	if len(lines) != 2 {
		t.Fatalf("want 2 distinct lake summary lines, got %d:\n%s", len(lines), out.String())
	}
	for i := 0; i < 2; i++ {
		want := fmt.Sprintf("shard %d (%s)", i, filepath.Join(cfg.lakeDir, fmt.Sprintf("shard-%d", i)))
		found := false
		for line := range lines {
			found = found || strings.Contains(line, want)
		}
		if !found {
			t.Errorf("no lake summary line names %q:\n%s", want, out.String())
		}
	}
}

// TestRunRecordReplay: -record then -replay through deployment.run
// itself. The replay decodes the same slots into the same records as
// the live run that recorded them, which in turn matches the serial
// reference.
func TestRunRecordReplay(t *testing.T) {
	cfg := testConfig("amarisoft")
	cfg.record = filepath.Join(t.TempDir(), "c.nrsc")
	wantSlots, wantRecords := serialRecords(t, cfg)

	live := new(deployment)
	if err := live.run(cfg); err != nil {
		t.Fatal(err)
	}
	replay := new(deployment)
	if err := replay.run(config{replay: cfg.record, cells: []string{"ignored"}, shards: 1}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*deployment{live, replay} {
		c := d.cells[0]
		if c.submitted != wantSlots[0] || c.decoded != wantSlots[0] || c.records != wantRecords[0] {
			t.Errorf("submitted %d, decoded %d, %d records; want %d slots, %d records",
				c.submitted, c.decoded, c.records, wantSlots[0], wantRecords[0])
		}
	}
	if live.recorder.Slots() != wantSlots[0] {
		t.Errorf("recorded %d slots, want %d", live.recorder.Slots(), wantSlots[0])
	}
}

// TestRunFailureStillDrainsSinks: a capture source failing mid-run (a
// truncated recording) makes run return the error — and the Block JSONL
// sink still holds, whole, every record decoded before the failure,
// because the run path returns through close instead of exiting.
func TestRunFailureStillDrainsSinks(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig("amarisoft")
	cfg.record = filepath.Join(dir, "c.nrsc")
	if err := new(deployment).run(cfg); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(cfg.record)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(cfg.record, st.Size()-1000); err != nil {
		t.Fatal(err)
	}
	jsonl := filepath.Join(dir, "t.jsonl")
	d := new(deployment)
	err = d.run(config{replay: cfg.record, cells: []string{"ignored"}, shards: 1, sinks: stringList{"jsonl:" + jsonl}})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("run on a truncated capture returned %v, want a truncation error", err)
	}
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	logged, err := telemetry.ReadAll(f)
	if err != nil {
		t.Fatalf("JSONL sink was cut mid-record: %v", err)
	}
	if c := d.cells[0]; len(logged) != c.records || c.records == 0 || c.decoded != c.submitted {
		t.Errorf("sink holds %d records; %d decoded from %d of %d submitted slots",
			len(logged), c.records, c.decoded, c.submitted)
	}
}

// TestRunShorterThanOneTTI: a duration below one slot decodes nothing;
// the summary must say so with a number (the mean used to be 0/0).
func TestRunShorterThanOneTTI(t *testing.T) {
	cfg := testConfig("amarisoft")
	cfg.duration = 100 * time.Microsecond
	out, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stderr := os.Stderr
	os.Stderr = out
	d := new(deployment)
	err = d.run(cfg)
	os.Stderr = stderr
	if err != nil {
		t.Fatal(err)
	}
	if d.cells[0].submitted != 0 {
		t.Fatalf("submitted %d slots in under one TTI", d.cells[0].submitted)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(printed), "decoded 0 of 0 slots") || strings.Contains(string(printed), "NaN") {
		t.Errorf("summary of an empty run:\n%s", printed)
	}
}
