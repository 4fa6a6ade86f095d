package history_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nrscope"
	"nrscope/internal/capfile"
	"nrscope/internal/core"
	"nrscope/internal/history"
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

// TestReplayedCaptureWindowedAggregates is the acceptance-criteria
// test: record a capture, replay it through a scope whose records the
// test folds into the history store, and check /history/ue returns exactly the windowed
// aggregates the test computes independently from the replayed records.
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

	// Replay through a fresh scope, folding its records into the store.
	r, err := capfile.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	hdr := r.Header()
	binWidth := 100 * time.Millisecond
	st := history.New(history.Config{BinWidth: binWidth, Depth: 256})
	if err := st.AddCell(hdr.CellID, hdr.Mu.SlotDuration()); err != nil {
		t.Fatal(err)
	}
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
			st.Ingest(hdr.CellID, rec)
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
	if len(want) < 2 {
		t.Fatalf("replay discovered %d UEs, want >= 2", len(want))
	}

	ts := httptest.NewServer(st.Handler())
	defer ts.Close()
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

func liveStore(tb testing.TB) *history.Store {
	tb.Helper()
	st := history.New(history.Config{BinWidth: 100 * time.Millisecond, Depth: 32})
	fillStore(tb, st)
	return st
}

// fillStore registers cell 1 on st and folds 1.5 s of four UEs'
// traffic into it.
func fillStore(tb testing.TB, st *history.Store) {
	tb.Helper()
	if err := st.AddCell(1, time.Millisecond); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		st.Ingest(1, telemetry.Record{
			TMs: float64(i * 5), RNTI: uint16(0x100 + i%4), Downlink: i%3 != 0,
			TBS: 1000, MCS: 10, NumPRB: 4, IsRetx: i%10 == 0,
		})
	}
}

func TestHTTPEndpoints(t *testing.T) {
	st := liveStore(t)
	ts := httptest.NewServer(st.Handler())
	defer ts.Close()

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

func TestHTTPErrors(t *testing.T) {
	st := liveStore(t)
	ts := httptest.NewServer(st.Handler())
	defer ts.Close()

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
		if resp.StatusCode != tc.code {
			resp.Body.Close()
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.code)
			continue
		}
		// Every error response must carry a machine-readable JSON body.
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", tc.path, ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Errorf("%s: error body not JSON: %v", tc.path, err)
		} else if body.Error == "" {
			t.Errorf("%s: empty error message", tc.path)
		}
		resp.Body.Close()
	}
}

// TestCellParamRequiredWithTwoCells: with more than one cell the cell
// query parameter stops being inferable.
func TestCellParamRequiredWithTwoCells(t *testing.T) {
	st := history.New(history.Config{})
	if err := st.AddCell(1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := st.AddCell(2, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(st.Handler())
	defer ts.Close()
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
	st := history.New(history.Config{BinWidth: 100 * time.Millisecond, Depth: 64, MaxQuerySamples: 10})
	if err := st.AddCell(1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		st.Ingest(1, telemetry.Record{TMs: float64(i)*100 + 10, RNTI: 0x100, Downlink: true, TBS: 1000, MCS: 5, NumPRB: 4})
	}
	ts := httptest.NewServer(st.Handler())
	defer ts.Close()

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
