package history

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The HTTP JSON query API, mounted on the observability mux next to
// /metrics and /events:
//
//	GET /history/ues?cell=N                     tracked UEs + roll-ups
//	GET /history/ue?rnti=0x4601&window=2s       one UE's windowed bins
//	GET /history/ue?rnti=...&from_ms=&to_ms=&downsample=N
//	GET /history/cell?cell=N&window=...         cell-level aggregate bins
//	GET /history/anomalies                      flagged anomaly events
//	GET /history/topk?metric=dl_bits&window=1s&k=10
//
// The cell parameter may be omitted when the store tracks one cell.

// Mux is the subset of http.ServeMux (and obs.Server) the store mounts
// its endpoints on.
type Mux interface {
	Handle(pattern string, h http.Handler)
}

// Mount registers the /history/* endpoints on a mux.
func (st *Store) Mount(m Mux) {
	m.Handle("/history/ues", http.HandlerFunc(st.serveUEs))
	m.Handle("/history/ue", http.HandlerFunc(st.serveUE))
	m.Handle("/history/cell", http.HandlerFunc(st.serveCell))
	m.Handle("/history/anomalies", http.HandlerFunc(st.serveAnomalies))
	m.Handle("/history/topk", http.HandlerFunc(st.serveTopK))
}

// Handler returns a standalone handler serving the /history/* routes.
func (st *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	st.Mount(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError answers with a JSON error body — malformed parameters get
// 400, unknown cells/UEs get 404 — so API consumers never have to
// distinguish "empty result" from "you asked about nothing".
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// cellParam resolves the cell query parameter, defaulting to the only
// registered cell when there is exactly one. A malformed or ambiguous
// parameter is a 400; a well-formed cell id that is not registered is
// a 404.
func (st *Store) cellParam(r *http.Request) (uint16, int, error) {
	if s := r.URL.Query().Get("cell"); s != "" {
		v, err := strconv.ParseUint(s, 10, 16)
		if err != nil {
			return 0, http.StatusBadRequest, fmt.Errorf("bad cell %q", s)
		}
		st.mu.RLock()
		_, known := st.cells[uint16(v)]
		st.mu.RUnlock()
		if !known {
			return 0, http.StatusNotFound, fmt.Errorf("cell %d not monitored", v)
		}
		return uint16(v), 0, nil
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if len(st.cells) == 1 {
		for id := range st.cells {
			return id, 0, nil
		}
	}
	return 0, http.StatusBadRequest, fmt.Errorf("cell parameter required (%d cells tracked)", len(st.cells))
}

func parseRNTI(s string) (uint16, error) {
	if s == "" {
		return 0, fmt.Errorf("rnti parameter required")
	}
	base := 10
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		s, base = s[2:], 16
	}
	v, err := strconv.ParseUint(s, base, 16)
	if err != nil {
		return 0, fmt.Errorf("bad rnti %q", s)
	}
	return uint16(v), nil
}

// rangeParams extracts from_ms/to_ms (or window=duration) + downsample.
func (st *Store) rangeParams(r *http.Request) (fromMs, toMs float64, downsample int, err error) {
	q := r.URL.Query()
	if s := q.Get("window"); s != "" {
		d, perr := time.ParseDuration(s)
		if perr != nil || d <= 0 {
			return 0, 0, 0, fmt.Errorf("bad window %q", s)
		}
		fromMs = st.LastMs() - float64(d)/float64(time.Millisecond)
		if fromMs < 0 {
			fromMs = 0
		}
	}
	if s := q.Get("from_ms"); s != "" {
		if fromMs, err = parseMs(s); err != nil {
			return 0, 0, 0, fmt.Errorf("bad from_ms %q", s)
		}
	}
	if s := q.Get("to_ms"); s != "" {
		if toMs, err = parseMs(s); err != nil {
			return 0, 0, 0, fmt.Errorf("bad to_ms %q", s)
		}
	}
	downsample = 1
	if s := q.Get("downsample"); s != "" {
		if downsample, err = strconv.Atoi(s); err != nil || downsample < 1 {
			return 0, 0, 0, fmt.Errorf("bad downsample %q", s)
		}
	}
	return fromMs, toMs, downsample, nil
}

// parseMs parses a from_ms/to_ms bound. NaN and ±Inf are refused: a NaN
// bound compares false against every bin and would read as "absent".
func parseMs(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = errors.New("not finite")
	}
	return v, err
}

func (st *Store) serveUEs(w http.ResponseWriter, r *http.Request) {
	cell, code, err := st.cellParam(r)
	if err != nil {
		writeError(w, code, "%s", err)
		return
	}
	ues := st.UEs(cell)
	writeJSON(w, struct {
		Cell    uint16      `json:"cell"`
		Tracked int         `json:"tracked"`
		UEs     []UESummary `json:"ues"`
	}{cell, len(ues), ues})
}

func (st *Store) serveUE(w http.ResponseWriter, r *http.Request) {
	cell, code, err := st.cellParam(r)
	if err != nil {
		writeError(w, code, "%s", err)
		return
	}
	rnti, err := parseRNTI(r.URL.Query().Get("rnti"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	fromMs, toMs, downsample, err := st.rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	bins, err := st.Query(cell, rnti, fromMs, toMs, downsample)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	if bins == nil && !st.ueKnown(cell, rnti) {
		// Distinguish an unknown UE from an empty range.
		writeError(w, http.StatusNotFound, "rnti 0x%04x not tracked on cell %d", rnti, cell)
		return
	}
	writeJSON(w, struct {
		Cell  uint16      `json:"cell"`
		RNTI  uint16      `json:"rnti"`
		BinMs float64     `json:"bin_ms"`
		Bins  []BinSample `json:"bins"`
	}{cell, rnti, st.binMS * float64(downsample), bins})
}

func (st *Store) serveCell(w http.ResponseWriter, r *http.Request) {
	cell, code, err := st.cellParam(r)
	if err != nil {
		writeError(w, code, "%s", err)
		return
	}
	fromMs, toMs, downsample, err := st.rangeParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	bins, err := st.CellQuery(cell, fromMs, toMs, downsample)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	writeJSON(w, struct {
		Cell     uint16      `json:"cell"`
		BinMs    float64     `json:"bin_ms"`
		Snapshot Snapshot    `json:"snapshot"`
		Bins     []BinSample `json:"bins"`
	}{cell, st.binMS * float64(downsample), st.Snapshot(), bins})
}

func (st *Store) serveAnomalies(w http.ResponseWriter, r *http.Request) {
	anoms := st.Anomalies()
	writeJSON(w, struct {
		Count     int       `json:"count"`
		Anomalies []Anomaly `json:"anomalies"`
	}{len(anoms), anoms})
}

func (st *Store) serveTopK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		metric = "dl_bits"
	}
	window := time.Second
	if s := q.Get("window"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad window %q", s)
			return
		}
		window = d
	}
	k := 10
	if s := q.Get("k"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "bad k %q", s)
			return
		}
		k = v
	}
	ranks, err := st.TopK(metric, window, k)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	writeJSON(w, struct {
		Metric string   `json:"metric"`
		Ranks  []UERank `json:"ranks"`
	}{metric, ranks})
}
