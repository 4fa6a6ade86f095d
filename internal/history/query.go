package history

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"
)

// BinSample is one query-result bin: the retained sums plus derived
// rates, in JSON form for both the Go and HTTP query APIs.
type BinSample struct {
	// StartMs/SpanMs delimit the sample: [StartMs, StartMs+SpanMs).
	StartMs   float64 `json:"start_ms"`
	SpanMs    float64 `json:"span_ms"`
	DLBits    int64   `json:"dl_bits"`
	ULBits    int64   `json:"ul_bits"`
	Grants    int64   `json:"grants"`
	Retx      int64   `json:"retx"`
	RetxRate  float64 `json:"retx_rate"`
	PRBs      int64   `json:"prbs"`
	MCSMin    int     `json:"mcs_min"`
	MCSAvg    float64 `json:"mcs_avg"`
	MCSMax    int     `json:"mcs_max"`
	DLBps     float64 `json:"dl_bps"`
	ULBps     float64 `json:"ul_bps"`
	SpareBits float64 `json:"spare_bits,omitempty"`
	UsedREs   int64   `json:"used_res,omitempty"`
	TotalREs  int64   `json:"total_res,omitempty"`
}

func (st *Store) sample(b Bin, startMs, spanMs float64) BinSample {
	s := BinSample{
		StartMs: startMs, SpanMs: spanMs,
		DLBits: b.DLBits, ULBits: b.ULBits,
		Grants: b.Grants, Retx: b.Retx, PRBs: b.PRBs,
		SpareBits: b.SpareBits, UsedREs: b.UsedREs, TotalREs: b.TotalREs,
	}
	if b.Grants > 0 {
		s.RetxRate = float64(b.Retx) / float64(b.Grants)
	}
	if b.MCSCount > 0 {
		s.MCSMin = b.MCSMin
		s.MCSMax = b.MCSMax
		s.MCSAvg = float64(b.MCSSum) / float64(b.MCSCount)
	}
	if spanMs > 0 {
		s.DLBps = float64(b.DLBits) / (spanMs / 1e3)
		s.ULBps = float64(b.ULBits) / (spanMs / 1e3)
	}
	return s
}

// TooWideError reports a query whose materialized sample count would
// exceed the store's MaxQuerySamples cap. The HTTP layer maps it to a
// 400; callers narrow from/to or raise the downsample factor.
type TooWideError struct {
	Samples int64 // samples the request would materialize
	Cap     int
}

func (e *TooWideError) Error() string {
	return fmt.Sprintf("history: query would materialize %d samples (cap %d): narrow from_ms/to_ms or raise downsample", e.Samples, e.Cap)
}

// querySeries extracts [fromMs, toMs) from a series merged with its
// lake spill-over, grouping `downsample` consecutive bins per sample
// (1 = raw bins). Bin indices below the RAM ring's retained window are
// answered from the lake; indices the ring covers are answered from
// RAM (plus any disk bins a re-created series left behind, which merge
// by summing). Caller holds st.mu.
func (st *Store) querySeries(cell, rnti uint16, cellSeries bool, s *series, fromMs, toMs float64, downsample int) ([]BinSample, error) {
	downsample = max(downsample, 1)
	var diskMin, diskMax int64
	var haveDisk bool
	if st.lake != nil {
		diskMin, diskMax, haveDisk = st.lake.SeriesBounds(cell, rnti, cellSeries)
	}
	haveRAM := s != nil && s.n > 0
	if !haveRAM && !haveDisk {
		return nil, nil
	}
	first, last := diskMin, diskMax
	if !haveDisk {
		first, last = s.oldestIdx(), s.curIdx
	} else if haveRAM {
		first, last = min(first, s.oldestIdx()), max(last, s.curIdx)
	}
	if fromMs > 0 {
		first = max(first, int64(fromMs/st.binMS))
	}
	if toMs > 0 {
		last = min(last, int64((toMs-1e-9)/st.binMS))
	}
	if first > last {
		return nil, nil
	}
	ds := int64(downsample)
	// With a lake attached [first, last] can span days of spilled bins;
	// the two materialized slices below are proportional to it, so an
	// unbounded span is an OOM vector, not just a slow query.
	if n := (last-first)/ds + 1; n > int64(st.cfg.MaxQuerySamples) {
		return nil, &TooWideError{Samples: n, Cap: st.cfg.MaxQuerySamples}
	}
	acc := make([]Bin, (last-first)/ds+1)
	if haveDisk && diskMin <= last && diskMax >= first {
		_ = st.lake.ReadSeries(cell, rnti, cellSeries, first, last, func(idx int64, b Bin) {
			acc[(idx-first)/ds].Merge(b)
		})
	}
	if haveRAM {
		rFirst, rLast := max(s.oldestIdx(), first), min(s.curIdx, last)
		for idx := rFirst; idx <= rLast; idx++ {
			acc[(idx-first)/ds].Merge(*s.atPtr(idx))
		}
	}
	out := make([]BinSample, 0, len(acc))
	for i := range acc {
		start := first + int64(i)*ds
		span := min(ds, last-start+1)
		out = append(out, st.sample(acc[i], float64(start)*st.binMS, float64(span)*st.binMS))
	}
	return out, nil
}

// Query returns a UE's windowed aggregates over [fromMs, toMs), oldest
// first, merging `downsample` bins per sample (toMs <= 0 means "up to
// now"; fromMs <= 0 means "from the oldest bin anywhere — disk or
// RAM"). A nil slice with a nil error means the UE is unknown to both
// the rings and the lake (or its history has no bins in range); a
// *TooWideError means the range must be narrowed or downsampled.
func (st *Store) Query(cellID, rnti uint16, fromMs, toMs float64, downsample int) ([]BinSample, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	met.queries.Inc()
	var s *series
	if u := st.ues[ueKey{cellID, rnti}]; u != nil {
		s = &u.series
	} else if st.lake == nil {
		return nil, nil
	}
	return st.querySeries(cellID, rnti, false, s, fromMs, toMs, downsample)
}

// QueryWindow is Query over the trailing window ending at the newest
// record the store has seen.
func (st *Store) QueryWindow(cellID, rnti uint16, window time.Duration, downsample int) ([]BinSample, error) {
	from := max(st.LastMs()-float64(window)/float64(time.Millisecond), 0)
	return st.Query(cellID, rnti, from, 0, downsample)
}

// CellQuery returns the cell-level aggregate series over [fromMs, toMs),
// merged across the RAM ring and the lake.
func (st *Store) CellQuery(cellID uint16, fromMs, toMs float64, downsample int) ([]BinSample, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	met.queries.Inc()
	c := st.cells[cellID]
	if c == nil {
		return nil, nil
	}
	return st.querySeries(cellID, 0, true, &c.series, fromMs, toMs, downsample)
}

// UERank is one TopK result row.
type UERank struct {
	Cell  uint16  `json:"cell"`
	RNTI  uint16  `json:"rnti"`
	Value float64 `json:"value"`
}

// Metric is a ranking metric projected onto Bin fields: the window sum
// of the Num fields, divided by the window sum of the Den fields when
// Den is set (0 when that sum is 0).
type Metric struct{ Num, Den Fields }

var metrics = map[string]Metric{
	"dl_bits":    {Num: DLBitsField},
	"ul_bits":    {Num: ULBitsField},
	"bits":       {Num: DLBitsField | ULBitsField},
	"grants":     {Num: GrantsField},
	"retx":       {Num: RetxField},
	"retx_rate":  {Num: RetxField, Den: GrantsField},
	"prbs":       {Num: PRBsField},
	"spare_bits": {Num: SpareBitsField},
}

// value is the metric over window sums s: {numerator, denominator}.
func (m Metric) value(s [2]float64) float64 {
	if m.Den == 0 {
		return s[0]
	}
	if s[1] == 0 {
		return 0
	}
	return s[0] / s[1]
}

// TopK ranks UEs (across all cells) by a metric summed over the trailing
// window: "dl_bits", "ul_bits", "bits", "grants", "retx", "retx_rate",
// "prbs", "spare_bits". Every tracked UE is ranked; with a lake attached
// each UE also counts every spilled bin in the window, as Query does, and
// UEs evicted from RAM re-enter the ranking from their spilled bins. The
// tracked UEs are walked in the order their series were created, so
// their rings are read in allocation order; each UE's sum starts from
// its spilled partials and adds its RAM bins oldest first, and
// CompareRanks' total order makes the top k independent of the walk
// order. The lake scan runs under the store read lock: it stalls ingest
// meanwhile.
func (st *Store) TopK(metric string, window time.Duration, k int) ([]UERank, error) {
	m, ok := metrics[metric]
	if !ok {
		return nil, fmt.Errorf("history: unknown metric %q", metric)
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	met.queries.Inc()
	fromIdx := int64((st.lastTMs - float64(window)/float64(time.Millisecond)) / st.binMS)
	disk := make(map[ueKey][2]float64) // spilled in-window sums, by UE
	if st.lake != nil {
		for _, p := range st.lake.ScanUEs(fromIdx, int64(st.lastTMs/st.binMS), m) {
			s := disk[ueKey{p.Cell, p.RNTI}]
			disk[ueKey{p.Cell, p.RNTI}] = [2]float64{s[0] + p.Num, s[1] + p.Den}
		}
	}
	top := []UERank{} // an empty ranking encodes as [], not null
	for _, u := range st.ueList {
		var s [2]float64
		if len(disk) > 0 { // skip the lookup when the lake had nothing left
			s = disk[u.key]
			delete(disk, u.key)
		}
		for idx := max(fromIdx, u.series.oldestIdx()); idx <= u.series.curIdx; idx++ {
			b := u.series.atPtr(idx)
			s[0] += b.Sum(m.Num)
			s[1] += b.Sum(m.Den)
		}
		top = keepBest(top, k, UERank{Cell: u.key.cell, RNTI: u.key.rnti, Value: m.value(s)})
	}
	for key, s := range disk {
		top = keepBest(top, k, UERank{Cell: key.cell, RNTI: key.rnti, Value: m.value(s)})
	}
	slices.SortFunc(top, CompareRanks)
	return top, nil
}

// CompareRanks is the ranking's total order: value descending, then
// cell, then RNTI.
func CompareRanks(a, b UERank) int {
	return cmp.Or(cmp.Compare(b.Value, a.Value), cmp.Compare(a.Cell, b.Cell), cmp.Compare(a.RNTI, b.RNTI))
}

// keepBest offers r to h, the k best ranks so far (all of them when
// k <= 0). Once full, h is a heap whose root is the worst rank kept, so
// a rank that cannot enter costs one compare.
func keepBest(h []UERank, k int, r UERank) []UERank {
	i := len(h)
	switch {
	case k <= 0:
		return append(h, r)
	case i < k: // sift up from the new leaf
		h = append(h, r)
		for ; i > 0 && CompareRanks(h[(i-1)/2], r) < 0; i = (i - 1) / 2 {
			h[i] = h[(i-1)/2]
		}
	case CompareRanks(r, h[0]) < 0: // sift down from the root
		for i = 0; 2*i+1 < k; {
			c := 2*i + 1
			if c+1 < k && CompareRanks(h[c], h[c+1]) < 0 {
				c++
			}
			if CompareRanks(h[c], r) <= 0 {
				break
			}
			h[i], i = h[c], c
		}
	default:
		return h
	}
	h[i] = r
	return h
}

// UESummary is one tracked UE's rolled-up retained history.
type UESummary struct {
	Cell   uint16  `json:"cell"`
	RNTI   uint16  `json:"rnti"`
	LastMs float64 `json:"last_ms"`
	Bins   int     `json:"bins"`
	DLBits int64   `json:"dl_bits"`
	ULBits int64   `json:"ul_bits"`
	Grants int64   `json:"grants"`
	Retx   int64   `json:"retx"`
}

// UEs lists the tracked UEs of a cell with rolled-up totals over their
// retained bins, ordered by RNTI.
func (st *Store) UEs(cellID uint16) []UESummary {
	st.mu.RLock()
	defer st.mu.RUnlock()
	met.queries.Inc()
	out := make([]UESummary, 0, len(st.ueList))
	for _, u := range st.ueList {
		if u.key.cell != cellID {
			continue
		}
		var acc Bin
		for idx := u.series.oldestIdx(); idx <= u.series.curIdx && u.series.n > 0; idx++ {
			acc.Merge(*u.series.atPtr(idx))
		}
		out = append(out, UESummary{
			Cell: u.key.cell, RNTI: u.key.rnti, LastMs: u.lastTMs, Bins: u.series.n,
			DLBits: acc.DLBits, ULBits: acc.ULBits, Grants: acc.Grants, Retx: acc.Retx,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RNTI < out[j].RNTI })
	return out
}

// CellSummary is one cell's rolled-up retained history.
type CellSummary struct {
	Cell   uint16  `json:"cell"`
	UEs    int     `json:"ues"`
	DLBits int64   `json:"dl_bits"`
	ULBits int64   `json:"ul_bits"`
	Grants int64   `json:"grants"`
	Retx   int64   `json:"retx"`
	LastMs float64 `json:"last_ms"`
}

// Snapshot is the store's state roll-up.
type Snapshot struct {
	TrackedUEs int           `json:"tracked_ues"`
	LastMs     float64       `json:"last_ms"`
	BinMs      float64       `json:"bin_ms"`
	Depth      int           `json:"depth"`
	MaxUEs     int           `json:"max_ues"`
	Anomalies  int           `json:"anomalies"`
	Cells      []CellSummary `json:"cells"`
}

// Snapshot rolls up the whole store: per-cell totals over retained
// bins, tracked-UE counts, and configuration echoes.
func (st *Store) Snapshot() Snapshot {
	st.mu.RLock()
	defer st.mu.RUnlock()
	met.queries.Inc()
	snap := Snapshot{
		TrackedUEs: len(st.ues), LastMs: st.lastTMs, BinMs: st.binMS,
		Depth: st.cfg.Depth, MaxUEs: st.cfg.MaxUEs, Anomalies: st.anoms.n,
		Cells: make([]CellSummary, 0, len(st.cells)),
	}
	perCell := make(map[uint16]int)
	for _, u := range st.ueList {
		perCell[u.key.cell]++
	}
	cells := make([]uint16, 0, len(st.cells))
	for id := range st.cells {
		cells = append(cells, id)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	for _, id := range cells {
		c := st.cells[id]
		var acc Bin
		for idx := c.series.oldestIdx(); idx <= c.series.curIdx && c.series.n > 0; idx++ {
			acc.Merge(*c.series.atPtr(idx))
		}
		snap.Cells = append(snap.Cells, CellSummary{
			Cell: id, UEs: perCell[id],
			DLBits: acc.DLBits, ULBits: acc.ULBits, Grants: acc.Grants, Retx: acc.Retx,
			LastMs: float64(c.series.curIdx+1) * st.binMS,
		})
	}
	return snap
}
