package history

// Series activity masks: the cross-cell correlation primitives behind
// the fusion aggregator's carrier-aggregation detector. A mask reduces a
// UE's retained bin series to "had >=1 DCI in this bin" booleans on the
// store's global bin-index timeline, so two sessions on different cells
// can be correlated bin-for-bin without either side keeping raw records.

// SeriesMask is a UE's per-bin activity over its retained window. Bin i
// of Mask covers absolute bin index FirstIdx+i (bin indices are global:
// tms / bin width), so masks from different cells align in time.
type SeriesMask struct {
	Cell uint16
	RNTI uint16
	// FirstIdx is the absolute bin index of Mask[0].
	FirstIdx int64
	// BinMs is the store's bin width in milliseconds.
	BinMs float64
	// Mask is true where the bin saw at least one grant (DCI).
	Mask []bool
	// Active is the number of true bins.
	Active int
}

// Overlap is |A∩B| / min(activeA, activeB) over the aligned bin-index
// timeline — the fraction of the sparser session's active bins that are
// also active in the other. Masks from stores with different bin widths
// are not comparable; the caller is expected to use one store.
func (m SeriesMask) Overlap(o SeriesMask) float64 {
	if m.Active == 0 || o.Active == 0 {
		return 0
	}
	hi := min(m.FirstIdx+int64(len(m.Mask)), o.FirstIdx+int64(len(o.Mask))) - 1
	n := 0
	for idx := max(m.FirstIdx, o.FirstIdx); idx <= hi; idx++ {
		if m.Mask[idx-m.FirstIdx] && o.Mask[idx-o.FirstIdx] {
			n++
		}
	}
	return float64(n) / float64(min(m.Active, o.Active))
}

// ActivityMask returns a UE's per-bin activity mask over its retained
// window, or ok=false when the UE is not tracked.
func (st *Store) ActivityMask(cellID, rnti uint16) (SeriesMask, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	met.queries.Inc()
	u := st.ues[ueKey{cellID, rnti}]
	if u == nil {
		return SeriesMask{}, false
	}
	m := SeriesMask{
		Cell: cellID, RNTI: rnti,
		FirstIdx: u.series.oldestIdx(), BinMs: st.binMS,
	}
	if u.series.n == 0 {
		return m, true
	}
	m.Mask = make([]bool, u.series.n)
	for i := range m.Mask {
		if u.series.atPtr(m.FirstIdx+int64(i)).Grants > 0 {
			m.Mask[i] = true
			m.Active++
		}
	}
	return m, true
}

// HasCell reports whether the cell is registered, so a component handed
// a shared store (e.g. the fusion aggregator) can register cells it is
// the first to see without racing AddCell's duplicate check.
func (st *Store) HasCell(cellID uint16) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.cells[cellID]
	return ok
}

// Depth returns how many bins each series retains.
func (st *Store) Depth() int { return st.cfg.Depth }

// BinMs returns the bin width in milliseconds.
func (st *Store) BinMs() float64 { return st.binMS }
