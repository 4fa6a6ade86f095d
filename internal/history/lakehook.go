package history

// The store's durability seam: a Lake receives every bin the RAM rings
// evict (and every anomaly the anomaly ring overwrites) and serves them
// back at query time, so Query/CellQuery/TopK/Anomalies answer
// transparently across RAM + disk. internal/lake implements the
// interface with append-only columnar segment files; tests implement it
// with an in-memory map. The store never imports the implementation —
// the dependency points the other way.

// Lake is the on-disk (or fake) spill target attached to a Store.
//
// Spill methods are invoked on the ingest path with the store lock held
// and must not block or allocate: implementations enqueue into a
// bounded ring and do the encoding on their own goroutine. Read methods
// are invoked on the query path under the store read lock — TopK's scan
// included, so RAM plus lake is one consistent snapshot and the scan's
// duration is an ingest stall — and must be internally synchronized
// against their own background writer. Reads must observe every
// spilled bin exactly once, including bins still queued behind the
// writer — a bin leaves the RAM ring and becomes the lake's
// responsibility at the moment Spill returns.
type Lake interface {
	// SpillBin receives one bin evicted from a ring. cellSeries
	// distinguishes the cell-aggregate series from a UE's (rnti is 0
	// for cell series). Empty bins are never spilled. b is only valid
	// for the duration of the call (it points into a ring slot about
	// to be reused) — implementations copy it before returning.
	SpillBin(cell, rnti uint16, cellSeries bool, binIdx int64, b *Bin)

	// SpillAnomaly receives one anomaly event evicted from the
	// bounded anomaly ring.
	SpillAnomaly(a Anomaly)

	// ReadSeries visits every spilled bin of one series with binIdx in
	// [fromIdx, toIdx], in no particular order. The same binIdx may be
	// visited more than once (a series evicted and re-created can
	// spill partial bins); callers merge.
	ReadSeries(cell, rnti uint16, cellSeries bool, fromIdx, toIdx int64, visit func(binIdx int64, b Bin)) error

	// SeriesBounds reports the min/max spilled bin index of a series,
	// or ok=false when the lake holds nothing for it.
	SeriesBounds(cell, rnti uint16, cellSeries bool) (minIdx, maxIdx int64, ok bool)

	// ScanUEs returns partial sums of every UE series' spilled bins in
	// [fromIdx, toIdx], one per stored block or queued bin holding any:
	// Num sums m.Num and Den m.Den over those bins. A series can appear
	// many times; callers sum.
	ScanUEs(fromIdx, toIdx int64, m Metric) []UEPartial

	// Anomalies returns the spilled anomaly events, oldest first.
	Anomalies() []Anomaly
}

// UEPartial is one partial sum a lake's ScanUEs returns.
type UEPartial struct {
	Cell, RNTI uint16
	Num, Den   float64
}

// AttachLake connects a spill target to the store. Bins evicted from
// the rings (and anomalies evicted from the anomaly ring) are handed to
// the lake instead of being lost, and the query APIs merge lake data
// below the rings' retained window. Attach before the first Ingest.
func (st *Store) AttachLake(l Lake) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lake = l
}

// KnowsUE reports whether a UE is live in RAM or has spilled history in
// the lake — the 404-vs-empty distinction for /history/ue.
func (st *Store) KnowsUE(cell, rnti uint16) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if _, live := st.ues[ueKey{cell, rnti}]; live || st.lake == nil {
		return live
	}
	_, _, ok := st.lake.SeriesBounds(cell, rnti, false)
	return ok
}
