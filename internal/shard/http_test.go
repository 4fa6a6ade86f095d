package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"nrscope"
	"nrscope/internal/capfile"
	"nrscope/internal/core"
	"nrscope/internal/history"
	"nrscope/internal/phy"
	"nrscope/internal/telemetry"
)

// ueResponse mirrors the /history/ue JSON shape.
type ueResponse struct {
	Cell  uint16              `json:"cell"`
	RNTI  uint16              `json:"rnti"`
	BinMs float64             `json:"bin_ms"`
	Bins  []history.BinSample `json:"bins"`
}

// binSums is the test's independent per-bin aggregation.
type binSums struct {
	dl, ul, grants, retx int64
}

// oneShard builds and starts a one-shard supervisor whose partition has
// histCfg and, if lk is set, spills to lk, with cells registered at 1 ms
// slots. Its queue blocks, so every ingested record is folded.
func oneShard(tb testing.TB, histCfg history.Config, lk history.Lake, cells ...uint16) *Supervisor {
	tb.Helper()
	sup := New(Config{Policy: Block, History: histCfg, StallTimeout: -1})
	for _, c := range cells {
		if _, err := sup.AddCell(c, phy.Mu0); err != nil {
			tb.Fatal(err)
		}
	}
	if lk != nil {
		if err := sup.AttachLakes(func(int) (history.Lake, error) { return lk, nil }); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sup.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sup.Close() })
	return sup
}

// apiServer serves sup's mounted routes.
func apiServer(tb testing.TB, sup *Supervisor) *httptest.Server {
	tb.Helper()
	mux := http.NewServeMux()
	sup.Mount(mux)
	ts := httptest.NewServer(mux)
	tb.Cleanup(ts.Close)
	return ts
}

// TestReplayedCaptureWindowedAggregates is the acceptance-criteria
// test: record a capture, replay it through a scope whose records the
// test ingests into a one-shard supervisor, and check /history/ue
// returns exactly the windowed aggregates the test computes
// independently from the replayed records.
func TestReplayedCaptureWindowedAggregates(t *testing.T) {
	// Record ~1.5 s of a two-UE cell.
	tb, err := nrscope.NewTestbed(nrscope.AmarisoftPreset, 3)
	if err != nil {
		t.Fatal(err)
	}
	tb.AttachUE(nrscope.UEProfile{})
	tb.AttachUE(nrscope.UEProfile{Mobility: "pedestrian"})
	cfg := tb.GNB.Config()
	var buf bytes.Buffer
	w, err := capfile.NewWriter(&buf, capfile.Header{CellID: cfg.CellID, Mu: cfg.Mu, NumPRB: cfg.CarrierPRBs})
	if err != nil {
		t.Fatal(err)
	}
	slots := int(1500 * time.Millisecond / tb.TTI())
	for i := 0; i < slots; i++ {
		cap, _ := tb.StepCapture()
		if err := w.Append(cap); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay through a fresh scope, ingesting its records.
	r, err := capfile.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	hdr := r.Header()
	binWidth := 100 * time.Millisecond
	sup := New(Config{Policy: Block, History: history.Config{BinWidth: binWidth, Depth: 256}, StallTimeout: -1})
	if _, err := sup.AddCell(hdr.CellID, hdr.Mu); err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	scope := core.New(hdr.CellID)
	// Independent aggregation, straight from the replayed records.
	want := map[uint16]map[int64]*binSums{}
	for {
		cap, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		res := scope.ProcessSlot(cap)
		for _, rec := range res.Records {
			if err := sup.Ingest(hdr.CellID, rec); err != nil {
				t.Fatal(err)
			}
			if rec.Common {
				continue
			}
			if rec.TMs <= 0 {
				t.Fatalf("record without t_ms stamp: %+v", rec)
			}
			per := want[rec.RNTI]
			if per == nil {
				per = map[int64]*binSums{}
				want[rec.RNTI] = per
			}
			idx := int64(rec.TMs / (float64(binWidth) / float64(time.Millisecond)))
			s := per[idx]
			if s == nil {
				s = &binSums{}
				per[idx] = s
			}
			s.grants++
			if rec.IsRetx {
				s.retx++
			} else if rec.Downlink {
				s.dl += int64(rec.TBS)
			} else {
				s.ul += int64(rec.TBS)
			}
		}
	}
	sup.Flush()
	if len(want) < 2 {
		t.Fatalf("replay discovered %d UEs, want >= 2", len(want))
	}

	ts := apiServer(t, sup)
	for rnti, bins := range want {
		resp, err := http.Get(fmt.Sprintf("%s/history/ue?rnti=0x%04x", ts.URL, rnti))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/history/ue 0x%04x: status %d", rnti, resp.StatusCode)
		}
		var got ueResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got.RNTI != rnti || got.Cell != hdr.CellID {
			t.Fatalf("response identity = cell %d rnti 0x%04x", got.Cell, got.RNTI)
		}
		nonEmpty := 0
		for _, bs := range got.Bins {
			idx := int64(bs.StartMs / got.BinMs)
			w := bins[idx]
			if w == nil {
				if bs.Grants != 0 {
					t.Errorf("ue 0x%04x bin %d: store has %d grants, test saw none", rnti, idx, bs.Grants)
				}
				continue
			}
			nonEmpty++
			if bs.DLBits != w.dl || bs.ULBits != w.ul || bs.Grants != w.grants || bs.Retx != w.retx {
				t.Errorf("ue 0x%04x bin %d: store {dl %d ul %d g %d rtx %d} != independent {dl %d ul %d g %d rtx %d}",
					rnti, idx, bs.DLBits, bs.ULBits, bs.Grants, bs.Retx, w.dl, w.ul, w.grants, w.retx)
			}
			delete(bins, idx)
		}
		if nonEmpty == 0 {
			t.Errorf("ue 0x%04x: no non-empty bins returned", rnti)
		}
		if len(bins) != 0 {
			t.Errorf("ue 0x%04x: %d independently computed bins missing from the response", rnti, len(bins))
		}
	}
}

// liveSupervisor is a one-shard supervisor over cell 1 holding 1.5 s
// of four UEs' traffic.
func liveSupervisor(tb testing.TB) *Supervisor {
	tb.Helper()
	sup := oneShard(tb, history.Config{BinWidth: 100 * time.Millisecond, Depth: 32}, nil, 1)
	fillCell(tb, sup)
	return sup
}

// fillCell folds 1.5 s of four UEs' traffic on cell 1 into sup.
func fillCell(tb testing.TB, sup *Supervisor) {
	tb.Helper()
	for i := 0; i < 300; i++ {
		if err := sup.Ingest(1, telemetry.Record{
			TMs: float64(i * 5), RNTI: uint16(0x100 + i%4), Downlink: i%3 != 0,
			TBS: 1000, MCS: 10, NumPRB: 4, IsRetx: i%10 == 0,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	sup.Flush()
}

func TestHTTPEndpoints(t *testing.T) {
	ts := apiServer(t, liveSupervisor(t))

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	var ues struct {
		Cell    uint16              `json:"cell"`
		Tracked int                 `json:"tracked"`
		UEs     []history.UESummary `json:"ues"`
	}
	getJSON("/history/ues", &ues)
	if ues.Cell != 1 || ues.Tracked != 4 || len(ues.UEs) != 4 {
		t.Errorf("/history/ues = %+v", ues)
	}

	var ue ueResponse
	getJSON("/history/ue?rnti=0x0100&window=500ms&downsample=2", &ue)
	if ue.RNTI != 0x100 || ue.BinMs != 200 || len(ue.Bins) == 0 {
		t.Errorf("/history/ue = %+v", ue)
	}
	// Decimal RNTI accepted too.
	getJSON("/history/ue?rnti=256", &ue)
	if ue.RNTI != 0x100 {
		t.Errorf("decimal rnti parsed as 0x%04x", ue.RNTI)
	}

	var cell struct {
		Cell     uint16              `json:"cell"`
		Snapshot history.Snapshot    `json:"snapshot"`
		Bins     []history.BinSample `json:"bins"`
	}
	getJSON("/history/cell", &cell)
	if cell.Cell != 1 || cell.Snapshot.TrackedUEs != 4 || len(cell.Bins) == 0 {
		t.Errorf("/history/cell = %+v", cell)
	}
	var cellGrants int64
	for _, b := range cell.Bins {
		cellGrants += b.Grants
	}
	if cellGrants != 300 {
		t.Errorf("cell grants = %d, want 300", cellGrants)
	}

	var anoms struct {
		Count     int               `json:"count"`
		Anomalies []history.Anomaly `json:"anomalies"`
	}
	getJSON("/history/anomalies", &anoms)
	if anoms.Count != len(anoms.Anomalies) {
		t.Errorf("/history/anomalies = %+v", anoms)
	}

	var topk struct {
		Metric string           `json:"metric"`
		Ranks  []history.UERank `json:"ranks"`
	}
	getJSON("/history/topk?metric=grants&window=2s&k=2", &topk)
	if topk.Metric != "grants" || len(topk.Ranks) != 2 {
		t.Errorf("/history/topk = %+v", topk)
	}
	if topk.Ranks[0].Value < topk.Ranks[1].Value {
		t.Errorf("topk not sorted: %+v", topk.Ranks)
	}
}

// expectJSONError checks that resp answers code with a JSON error body.
func expectJSONError(t *testing.T, path string, resp *http.Response, code int) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != code {
		t.Errorf("%s: status %d, want %d", path, resp.StatusCode, code)
		return
	}
	// Every error response must carry a machine-readable JSON body.
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", path, ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Errorf("%s: error body not JSON: %v", path, err)
	} else if body.Error == "" {
		t.Errorf("%s: empty error message", path)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts := apiServer(t, liveSupervisor(t))

	for _, tc := range []struct {
		path string
		code int
	}{
		{"/history/ue", http.StatusBadRequest},           // no rnti
		{"/history/ue?rnti=zzz", http.StatusBadRequest},  // bad rnti
		{"/history/ue?rnti=0x9999", http.StatusNotFound}, // unknown rnti
		{"/history/ue?rnti=0x0100&window=bogus", http.StatusBadRequest},
		{"/history/ue?rnti=0x0100&window=-2s", http.StatusBadRequest},
		{"/history/ue?rnti=0x0100&downsample=0", http.StatusBadRequest},
		{"/history/ue?rnti=0x0100&cell=77", http.StatusNotFound}, // unmonitored cell
		{"/history/ue?rnti=0x0100&cell=xx", http.StatusBadRequest},
		{"/history/ue?rnti=0x0100&cell=99999999", http.StatusBadRequest}, // out of uint16 range
		{"/history/ues?cell=77", http.StatusNotFound},
		{"/history/cell?cell=77", http.StatusNotFound},
		{"/history/topk?metric=bogus", http.StatusBadRequest},
		{"/history/topk?k=0", http.StatusBadRequest},
		{"/history/topk?window=nope", http.StatusBadRequest},
		{"/history/cell?from_ms=abc", http.StatusBadRequest},
		{"/history/cell?to_ms=1e", http.StatusBadRequest},
		{"/history/cell?from_ms=NaN", http.StatusBadRequest},
		{"/history/ue?rnti=0x0100&to_ms=NaN", http.StatusBadRequest},
		{"/history/cell?from_ms=-Inf", http.StatusBadRequest},
		{"/history/cell?to_ms=%2BInf", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		expectJSONError(t, tc.path, resp, tc.code)
	}
}

// TestUnmatchedRoutesAnswerJSON404: a path under /history/ or /shards/
// that names no route is a 404 with the JSON error body every other
// API error has, not the mux's plain-text page.
func TestUnmatchedRoutesAnswerJSON404(t *testing.T) {
	ts := apiServer(t, liveSupervisor(t))
	for _, path := range []string{"/history/nope", "/history/ue/0x0100", "/shards/nope", "/shards/snapshot/1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		expectJSONError(t, path, resp, http.StatusNotFound)
	}
}

// TestEmptyListsEncodeAsArrays: every list field of the query API
// encodes as [] when it is empty — on a supervisor with no cells, on
// one whose cell has seen nothing, and for a range that holds no bins
// — never as null.
func TestEmptyListsEncodeAsArrays(t *testing.T) {
	bare := New(Config{Shards: 2, StallTimeout: -1})
	if err := bare.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bare.Close() })
	servers := map[string]*httptest.Server{
		"bare": apiServer(t, bare),
		"idle": apiServer(t, oneShard(t, history.Config{}, nil, 1)),
		"live": apiServer(t, liveSupervisor(t)),
	}
	for _, tc := range []struct {
		sup, path, field string
	}{
		{"bare", "/history/topk", "ranks"},
		{"bare", "/history/anomalies", "anomalies"},
		{"bare", "/shards/snapshot", "cells"},
		{"bare", "/shards/handovers", "handovers"},
		{"idle", "/history/ues", "ues"},
		{"idle", "/history/cell", "bins"},
		{"live", "/history/ue?rnti=0x0100&from_ms=100000&to_ms=200000", "bins"},
		{"live", "/history/cell?from_ms=100000&to_ms=200000", "bins"},
	} {
		resp, err := http.Get(servers[tc.sup].URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Errorf("%s %s: status %d, decode error %v", tc.sup, tc.path, resp.StatusCode, err)
			continue
		}
		if got := string(body[tc.field]); got != "[]" {
			t.Errorf("%s %s: %q = %s, want []", tc.sup, tc.path, tc.field, got)
		}
	}
}

// TestCellParamRequiredWithTwoCells: with more than one cell the cell
// query parameter stops being inferable.
func TestCellParamRequiredWithTwoCells(t *testing.T) {
	ts := apiServer(t, oneShard(t, history.Config{}, nil, 1, 2))
	resp, err := http.Get(ts.URL + "/history/ues")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ambiguous cell: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/history/ues?cell=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("explicit cell: status %d, want 200", resp.StatusCode)
	}
}

// TestHTTPQueryTooWide: a request materializing more samples than the
// store's cap is a 400 with guidance, not an unbounded allocation.
func TestHTTPQueryTooWide(t *testing.T) {
	sup := oneShard(t, history.Config{BinWidth: 100 * time.Millisecond, Depth: 64, MaxQuerySamples: 10}, nil, 1)
	for i := 0; i < 50; i++ {
		if err := sup.Ingest(1, telemetry.Record{TMs: float64(i)*100 + 10, RNTI: 0x100, Downlink: true, TBS: 1000, MCS: 5, NumPRB: 4}); err != nil {
			t.Fatal(err)
		}
	}
	sup.Flush()
	ts := apiServer(t, sup)

	for _, tc := range []struct {
		path string
		code int
	}{
		{"/history/ue?rnti=0x0100", http.StatusBadRequest},
		{"/history/cell", http.StatusBadRequest},
		{"/history/ue?rnti=0x0100&downsample=5", http.StatusOK},
		{"/history/cell?downsample=5", http.StatusOK},
		{"/history/ue?rnti=0x0100&from_ms=4000", http.StatusOK},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
	}
}

// TestHistoryRoutesAcrossShards: on a two-shard, two-cell supervisor
// /history/ue?cell= is answered by the partition that owns the cell,
// /history/topk is the fused ranking, and a cell that is unknown or
// left out is a 404 or a 400.
func TestHistoryRoutesAcrossShards(t *testing.T) {
	sup := newTestSupervisor(t, Config{Shards: 2, Policy: Block, History: history.Config{BinWidth: 100 * time.Millisecond, Depth: 32}}, 2)
	for i := 0; i < 400; i++ {
		for c := uint16(1); c <= 2; c++ {
			if err := sup.Ingest(c, trec(i, c<<8|uint16(i%3), 1000*int(c)+i%7, float64(i*5))); err != nil {
				t.Fatal(err)
			}
		}
	}
	sup.Flush()
	if idx, _ := sup.Partition(2); idx != 1 {
		t.Fatalf("cell 2 on shard %d, want 1", idx)
	}
	ts := apiServer(t, sup)
	get := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	// roundTrip passes v through JSON, as the handler's answer did.
	roundTrip := func(v, into any) {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, into); err != nil {
			t.Fatal(err)
		}
	}

	var ue ueResponse
	if code := get("/history/ue?cell=2&rnti=0x0201", &ue); code != http.StatusOK {
		t.Fatalf("/history/ue on shard 1: status %d", code)
	}
	direct, err := sup.Store(1).Query(2, 0x0201, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want []history.BinSample
	roundTrip(direct, &want)
	if len(want) == 0 || ue.Cell != 2 || ue.RNTI != 0x0201 || !reflect.DeepEqual(ue.Bins, want) {
		t.Errorf("/history/ue?cell=2 = cell %d rnti 0x%04x, %d bins; Store(1).Query has %d bins",
			ue.Cell, ue.RNTI, len(ue.Bins), len(want))
	}

	var topk struct {
		Metric string           `json:"metric"`
		Ranks  []history.UERank `json:"ranks"`
	}
	if code := get("/history/topk?metric=dl_bits&window=2s&k=4", &topk); code != http.StatusOK {
		t.Fatalf("/history/topk: status %d", code)
	}
	fused, err := sup.TopK("dl_bits", 2*time.Second, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wantRanks []history.UERank
	roundTrip(fused, &wantRanks)
	if len(wantRanks) != 4 || !reflect.DeepEqual(topk.Ranks, wantRanks) {
		t.Errorf("/history/topk = %+v, Supervisor.TopK = %+v", topk.Ranks, wantRanks)
	}

	for _, tc := range []struct {
		path string
		code int
	}{
		{"/history/ue?cell=9&rnti=0x0201", http.StatusNotFound},
		{"/history/ue?rnti=0x0201", http.StatusBadRequest}, // two cells: which?
		{"/history/ues", http.StatusBadRequest},
		{"/history/ue?cell=1&rnti=0x0201", http.StatusNotFound}, // cell 2's UE
	} {
		if code := get(tc.path, nil); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.path, code, tc.code)
		}
	}
}
