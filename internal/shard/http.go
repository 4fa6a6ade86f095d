package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nrscope/internal/fusion"
	"nrscope/internal/history"
)

// The HTTP JSON API of stored telemetry, mounted on the observability
// mux next to /metrics and /events. The Supervisor is its only server,
// whatever the shard count:
//
//	GET /history/ues?cell=N                     tracked UEs + roll-ups
//	GET /history/ue?rnti=0x4601&window=2s       one UE's windowed bins
//	GET /history/ue?rnti=...&from_ms=&to_ms=&downsample=N
//	GET /history/cell?cell=N&window=...         cell-level aggregate bins
//	GET /history/topk?metric=dl_bits&window=1s&k=10  fused TopK
//	GET /history/anomalies                      flagged anomaly events
//	GET /shards                                 per-shard health + totals
//	GET /shards/snapshot                        merged history snapshot
//	GET /shards/handovers                       merged handover candidates
//
// The per-cell routes are answered by the partition that owns cell=;
// the parameter may be omitted when the deployment monitors one cell.
// Every error — an unmatched path under /history/ or /shards/ too — is
// a JSON {"error": ...} body.

// Mux is the subset of http.ServeMux (and obs.Server) the supervisor
// mounts its routes on.
type Mux interface {
	Handle(pattern string, h http.Handler)
}

// Mount registers the /history/* and /shards/* routes on a mux. Call it
// after Start: the routes read the cell map AddCell builds.
func (s *Supervisor) Mount(m Mux) {
	m.Handle("/history/ues", http.HandlerFunc(s.serveUEs))
	m.Handle("/history/ue", http.HandlerFunc(s.serveUE))
	m.Handle("/history/cell", http.HandlerFunc(s.serveCell))
	m.Handle("/history/topk", http.HandlerFunc(s.serveTopK))
	m.Handle("/history/anomalies", http.HandlerFunc(s.serveAnomalies))
	m.Handle("/history/", http.HandlerFunc(serveNotFound))
	m.Handle("/shards", http.HandlerFunc(s.serveHealth))
	m.Handle("/shards/snapshot", http.HandlerFunc(s.serveSnapshot))
	m.Handle("/shards/handovers", http.HandlerFunc(s.serveHandovers))
	m.Handle("/shards/", http.HandlerFunc(serveNotFound))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError answers with a JSON error body — malformed parameters get
// 400, unknown cells, UEs and routes get 404 — so API consumers never
// have to distinguish "empty result" from "you asked about nothing".
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

func serveNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "no route %s", r.URL.Path)
}

// cellParam resolves the cell query parameter to the cell and the
// history partition that owns it, defaulting to the only registered
// cell when the deployment monitors exactly one. A malformed or
// ambiguous parameter is a 400; a well-formed cell id that is not
// registered is a 404.
func (s *Supervisor) cellParam(r *http.Request) (uint16, *history.Store, int, error) {
	if v := r.URL.Query().Get("cell"); v != "" {
		id, err := strconv.ParseUint(v, 10, 16)
		if err != nil {
			return 0, nil, http.StatusBadRequest, fmt.Errorf("bad cell %q", v)
		}
		sh, ok := s.route[uint16(id)]
		if !ok {
			return 0, nil, http.StatusNotFound, fmt.Errorf("cell %d not monitored", id)
		}
		return uint16(id), sh.store, 0, nil
	}
	if len(s.route) == 1 {
		for id, sh := range s.route {
			return id, sh.store, 0, nil
		}
	}
	return 0, nil, http.StatusBadRequest, fmt.Errorf("cell parameter required (%d cells tracked)", len(s.route))
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

// rangeParams extracts from_ms/to_ms (or window=duration, back from the
// partition's newest record) + downsample.
func rangeParams(r *http.Request, st *history.Store) (fromMs, toMs float64, downsample int, err error) {
	q := r.URL.Query()
	if s := q.Get("window"); s != "" {
		d, perr := time.ParseDuration(s)
		if perr != nil || d <= 0 {
			return 0, 0, 0, fmt.Errorf("bad window %q", s)
		}
		fromMs = max(st.LastMs()-float64(d)/float64(time.Millisecond), 0)
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

func (s *Supervisor) serveUEs(w http.ResponseWriter, r *http.Request) {
	cell, st, code, err := s.cellParam(r)
	if err != nil {
		writeError(w, code, "%s", err)
		return
	}
	ues := st.UEs(cell)
	writeJSON(w, struct {
		Cell    uint16              `json:"cell"`
		Tracked int                 `json:"tracked"`
		UEs     []history.UESummary `json:"ues"`
	}{cell, len(ues), ues})
}

func (s *Supervisor) serveUE(w http.ResponseWriter, r *http.Request) {
	cell, st, code, err := s.cellParam(r)
	if err != nil {
		writeError(w, code, "%s", err)
		return
	}
	rnti, err := parseRNTI(r.URL.Query().Get("rnti"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	fromMs, toMs, downsample, err := rangeParams(r, st)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	bins, err := st.Query(cell, rnti, fromMs, toMs, downsample)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	if bins == nil && !st.KnowsUE(cell, rnti) {
		// Distinguish an unknown UE from an empty range.
		writeError(w, http.StatusNotFound, "rnti 0x%04x not tracked on cell %d", rnti, cell)
		return
	}
	writeJSON(w, struct {
		Cell  uint16              `json:"cell"`
		RNTI  uint16              `json:"rnti"`
		BinMs float64             `json:"bin_ms"`
		Bins  []history.BinSample `json:"bins"`
	}{cell, rnti, st.BinMs() * float64(downsample), bins})
}

func (s *Supervisor) serveCell(w http.ResponseWriter, r *http.Request) {
	cell, st, code, err := s.cellParam(r)
	if err != nil {
		writeError(w, code, "%s", err)
		return
	}
	fromMs, toMs, downsample, err := rangeParams(r, st)
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
		Cell     uint16              `json:"cell"`
		BinMs    float64             `json:"bin_ms"`
		Snapshot history.Snapshot    `json:"snapshot"`
		Bins     []history.BinSample `json:"bins"`
	}{cell, st.BinMs() * float64(downsample), st.Snapshot(), bins})
}

func (s *Supervisor) serveTopK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		metric = "dl_bits"
	}
	window := time.Second
	if v := q.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad window %q", v)
			return
		}
		window = d
	}
	k := 10
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad k %q", v)
			return
		}
		k = n
	}
	ranks, err := s.TopK(metric, window, k)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	writeJSON(w, struct {
		Metric string           `json:"metric"`
		Ranks  []history.UERank `json:"ranks"`
	}{metric, ranks})
}

func (s *Supervisor) serveAnomalies(w http.ResponseWriter, r *http.Request) {
	anoms := s.Anomalies()
	writeJSON(w, struct {
		Count     int               `json:"count"`
		Anomalies []history.Anomaly `json:"anomalies"`
	}{len(anoms), anoms})
}

func (s *Supervisor) serveHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Health())
}

func (s *Supervisor) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Snapshot())
}

func (s *Supervisor) serveHandovers(w http.ResponseWriter, r *http.Request) {
	hos := s.Handovers()
	writeJSON(w, struct {
		Count     int               `json:"count"`
		Handovers []fusion.Handover `json:"handovers"`
	}{len(hos), hos})
}
