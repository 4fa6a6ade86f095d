package history

import "nrscope/internal/telemetry"

// Bin is one bin-width of aggregated telemetry for a series (a UE's, or
// the whole cell's). Sums are kept raw; rates and means are derived at
// query time (BinSample) so downsampling stays a pure sum-merge.
type Bin struct {
	DLBits   int64
	ULBits   int64
	Grants   int64
	Retx     int64
	PRBs     int64
	MCSSum   int64
	MCSCount int64
	MCSMin   int
	MCSMax   int
	// SpareBits is the UE's accumulated §5.4.1 fair-share spare
	// capacity across the bin's TTIs (UE series only).
	SpareBits float64
	// UsedREs/TotalREs accumulate the cell's RE budget accounting
	// (cell series only).
	UsedREs  int64
	TotalREs int64
}

// Fields is a set of Bin fields. Bit i stands for the i-th field in the
// lake's column order: DLBits, ULBits, Grants, Retx, PRBs, MCSSum,
// MCSCount, MCSMin, MCSMax, UsedREs, TotalREs, SpareBits.
type Fields uint16

// The fields a ranking metric sums.
const (
	DLBitsField Fields = 1 << iota
	ULBitsField
	GrantsField
	RetxField
	PRBsField
	SpareBitsField Fields = 1 << 11
)

// Sum adds up the fields of the bin that fs names. It tests each field
// on its own rather than looping over them: a ranking calls it for
// every bin in its window, and only the named fields are loaded.
func (b *Bin) Sum(fs Fields) float64 {
	var v int64
	if fs&DLBitsField != 0 {
		v += b.DLBits
	}
	if fs&ULBitsField != 0 {
		v += b.ULBits
	}
	if fs&GrantsField != 0 {
		v += b.Grants
	}
	if fs&RetxField != 0 {
		v += b.Retx
	}
	if fs&PRBsField != 0 {
		v += b.PRBs
	}
	if fs&SpareBitsField != 0 {
		return float64(v) + b.SpareBits
	}
	return float64(v)
}

// addRecord folds one telemetry record into the bin.
func (b *Bin) addRecord(rec telemetry.Record) {
	b.Grants++
	b.PRBs += int64(rec.NumPRB)
	if rec.IsRetx {
		b.Retx++
	} else if rec.Downlink {
		b.DLBits += int64(rec.TBS)
	} else {
		b.ULBits += int64(rec.TBS)
	}
	if b.MCSCount == 0 || rec.MCS < b.MCSMin {
		b.MCSMin = rec.MCS
	}
	if b.MCSCount == 0 || rec.MCS > b.MCSMax {
		b.MCSMax = rec.MCS
	}
	b.MCSSum += int64(rec.MCS)
	b.MCSCount++
}

// Merge folds another bin's sums into b (downsampling).
func (b *Bin) Merge(o Bin) {
	b.DLBits += o.DLBits
	b.ULBits += o.ULBits
	b.Grants += o.Grants
	b.Retx += o.Retx
	b.PRBs += o.PRBs
	if o.MCSCount > 0 {
		if b.MCSCount == 0 || o.MCSMin < b.MCSMin {
			b.MCSMin = o.MCSMin
		}
		if b.MCSCount == 0 || o.MCSMax > b.MCSMax {
			b.MCSMax = o.MCSMax
		}
		b.MCSSum += o.MCSSum
		b.MCSCount += o.MCSCount
	}
	b.SpareBits += o.SpareBits
	b.UsedREs += o.UsedREs
	b.TotalREs += o.TotalREs
}

// series is a fixed-capacity ring of consecutive bins. bins[head] is
// the newest bin, covering bin index curIdx; older bins sit behind it.
type series struct {
	bins   []Bin
	head   int
	n      int
	curIdx int64
}

// advance positions the ring at bin index idx and returns the bin to
// write into. Moving forward closes intervening bins (invoking onClose
// for each, newest-gap walk capped at the ring depth) and hands every
// bin pushed off the back of a full ring to onEvict — the lake spill
// point; a late index still inside the ring returns its retained bin;
// one older than the ring returns nil.
func (s *series) advance(idx int64, onClose func(b Bin, binIdx int64), onEvict func(binIdx int64, b *Bin)) *Bin {
	depth := len(s.bins)
	if s.n == 0 {
		s.head, s.n, s.curIdx = 0, 1, idx
		s.bins[0] = Bin{}
		return &s.bins[0]
	}
	if idx <= s.curIdx {
		back := s.curIdx - idx
		if back >= int64(depth) {
			return nil
		}
		if back >= int64(s.n) {
			// Late but within the ring's depth, before the series had
			// grown that far back: extend it — the intervening positions
			// have never been written since the last reset, so they
			// already read as empty bins.
			s.n = int(back) + 1
		}
		pos := s.head - int(back)
		if pos < 0 {
			pos += depth
		}
		return &s.bins[pos]
	}
	if gap := idx - s.curIdx; gap >= int64(depth) {
		// The whole retained window is silence: close the current bin,
		// evict everything retained, zero the ring, and jump — never
		// walk an unbounded gap.
		if onClose != nil {
			onClose(s.bins[s.head], s.curIdx)
		}
		if onEvict != nil {
			s.spillAll(onEvict)
		}
		for i := range s.bins {
			s.bins[i] = Bin{}
		}
		s.head = 0
		s.n = depth
		s.curIdx = idx
		return &s.bins[0]
	}
	for s.curIdx < idx {
		if onClose != nil {
			onClose(s.bins[s.head], s.curIdx)
		}
		s.head++
		if s.head == depth {
			s.head = 0
		}
		if s.n == depth {
			// The slot about to be recycled holds the oldest retained
			// bin: it falls off the ring here, and nowhere else. The
			// pointer stays valid only until the zeroing below —
			// onEvict (the lake spill point) copies before returning.
			if onEvict != nil {
				if p := &s.bins[s.head]; *p != (Bin{}) {
					onEvict(s.curIdx+1-int64(depth), p)
				}
			}
		}
		s.bins[s.head] = Bin{}
		if s.n < depth {
			s.n++
		}
		s.curIdx++
	}
	return &s.bins[s.head]
}

// spillAll hands every non-empty retained bin to onEvict, oldest first.
func (s *series) spillAll(onEvict func(binIdx int64, b *Bin)) {
	for i := s.oldestIdx(); i <= s.curIdx; i++ {
		if p := s.atPtr(i); *p != (Bin{}) {
			onEvict(i, p)
		}
	}
}

// oldestIdx returns the bin index of the oldest retained bin.
func (s *series) oldestIdx() int64 { return s.curIdx - int64(s.n) + 1 }

// atPtr returns a pointer into the ring for binIdx — valid only for
// indices in [oldestIdx, curIdx], and only until the ring advances.
func (s *series) atPtr(binIdx int64) *Bin {
	back := s.curIdx - binIdx
	pos := s.head - int(back)
	if pos < 0 {
		pos += len(s.bins)
	}
	return &s.bins[pos]
}
