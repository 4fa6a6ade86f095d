// Package lake is the columnar on-disk telemetry lake: bins that fall
// off the history store's RAM rings are spilled into append-only,
// per-cell segment files and served back at query time, so the query
// APIs answer transparently across RAM + disk. Segments hold
// CRC-guarded column-major blocks (delta-of-delta bin indices,
// varint/zigzag value columns), each sealed with a footer index;
// discovery is crash-safe via an append-only fsync'd manifest, and a
// background compactor merges small segments and enforces a retention
// horizon.
package lake

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"nrscope/internal/history"
)

// Series kinds, stored per block.
const (
	kindCell    = 0 // a cell's aggregate series
	kindUE      = 1 // one C-RNTI's series
	kindAnomaly = 2 // spilled anomaly events
)

func kindOf(cellSeries bool) uint8 {
	if cellSeries {
		return kindCell
	}
	return kindUE
}

// entry is one spilled bin in flight between the history store and a
// segment file.
type entry struct {
	cell, rnti uint16
	kind       uint8
	binIdx     int64
	bin        history.Bin
	anom       history.Anomaly
}

// binColumns is how many columns a series block carries: the bin-index
// column plus the 12 Bin value fields.
const binColumns = 13

// anomColumns is the anomaly block layout: cell, rnti, kind string,
// t_ms, value, baseline.
const anomColumns = 6

// encoder holds reusable column and payload buffers so the background
// writer's steady state is allocation-free.
type encoder struct {
	cols    [][]byte
	payload []byte
}

func (e *encoder) reset(ncols int) {
	for len(e.cols) < ncols {
		e.cols = append(e.cols, nil)
	}
	e.cols = e.cols[:ncols]
	for i := range e.cols {
		e.cols[i] = e.cols[i][:0]
	}
	e.payload = e.payload[:0]
}

// seriesBlock encodes one series' entries — batch rows picked out by
// idxs, in idxs order — column-major. Layout after the common header
// (kind, cell, rnti, count, column-length table): column 0 is the
// bin-index column as delta-of-delta zigzag varints; columns 1..11 are
// the int64 Bin fields as plain zigzag varints; column 12 is SpareBits
// as Float64bits uvarints. The returned payload is valid until the
// next encoder call.
func (e *encoder) seriesBlock(kind uint8, cell, rnti uint16, batch []entry, idxs []int32) []byte {
	e.reset(binColumns)
	cols := e.cols

	// Column 0: delta-of-delta bin indices.
	var prev, prevDelta int64
	for i, bi := range idxs {
		idx := batch[bi].binIdx
		switch i {
		case 0:
			cols[0] = binary.AppendVarint(cols[0], idx)
		case 1:
			prevDelta = idx - prev
			cols[0] = binary.AppendVarint(cols[0], prevDelta)
		default:
			d := idx - prev
			cols[0] = binary.AppendVarint(cols[0], d-prevDelta)
			prevDelta = d
		}
		prev = idx
	}
	for _, bi := range idxs {
		b := &batch[bi].bin
		cols[1] = binary.AppendVarint(cols[1], b.DLBits)
		cols[2] = binary.AppendVarint(cols[2], b.ULBits)
		cols[3] = binary.AppendVarint(cols[3], b.Grants)
		cols[4] = binary.AppendVarint(cols[4], b.Retx)
		cols[5] = binary.AppendVarint(cols[5], b.PRBs)
		cols[6] = binary.AppendVarint(cols[6], b.MCSSum)
		cols[7] = binary.AppendVarint(cols[7], b.MCSCount)
		cols[8] = binary.AppendVarint(cols[8], int64(b.MCSMin))
		cols[9] = binary.AppendVarint(cols[9], int64(b.MCSMax))
		cols[10] = binary.AppendVarint(cols[10], b.UsedREs)
		cols[11] = binary.AppendVarint(cols[11], b.TotalREs)
		cols[12] = binary.AppendUvarint(cols[12], math.Float64bits(b.SpareBits))
	}
	e.cols = cols
	return e.buildPayload(kind, cell, rnti, len(idxs))
}

// anomalyBlock encodes anomaly rows (batch picked by idxs) column-
// major: cell, rnti, kind string (length-prefixed), then the three
// float columns.
func (e *encoder) anomalyBlock(cell uint16, batch []entry, idxs []int32) []byte {
	e.reset(anomColumns)
	cols := e.cols
	for _, bi := range idxs {
		a := &batch[bi].anom
		cols[0] = binary.AppendUvarint(cols[0], uint64(a.Cell))
		cols[1] = binary.AppendUvarint(cols[1], uint64(a.RNTI))
		cols[2] = binary.AppendUvarint(cols[2], uint64(len(a.Kind)))
		cols[2] = append(cols[2], a.Kind...)
		cols[3] = binary.AppendUvarint(cols[3], math.Float64bits(a.AtMs))
		cols[4] = binary.AppendUvarint(cols[4], math.Float64bits(a.Value))
		cols[5] = binary.AppendUvarint(cols[5], math.Float64bits(a.Baseline))
	}
	e.cols = cols
	return e.buildPayload(kindAnomaly, cell, 0, len(idxs))
}

// seqIdxs returns [0, 1, ..., n): the identity pick for callers whose
// batch is already one series' rows in order (compaction).
func seqIdxs(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// buildPayload writes the common payload header + column table +
// column bytes into the reusable payload buffer.
func (e *encoder) buildPayload(kind uint8, cell, rnti uint16, count int) []byte {
	buf := e.payload
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(cell))
	buf = binary.AppendUvarint(buf, uint64(rnti))
	buf = binary.AppendUvarint(buf, uint64(count))
	buf = binary.AppendUvarint(buf, uint64(len(e.cols)))
	for _, c := range e.cols {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
	}
	for _, c := range e.cols {
		buf = append(buf, c...)
	}
	e.payload = buf
	return buf
}

// blockHeader is the decoded payload header of one block.
type blockHeader struct {
	kind       uint8
	cell, rnti uint16
	count      int
	cols       [][]byte // column byte slices, aliasing the payload
}

// parseBlockPayload splits a verified payload into its header and
// column slices, reusing cols' backing array for the slices.
func parseBlockPayload(p []byte, cols [][]byte) (blockHeader, error) {
	var h blockHeader
	if len(p) < 1 {
		return h, fmt.Errorf("lake: empty block payload")
	}
	h.kind = p[0]
	p = p[1:]
	rd := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("lake: truncated block header")
		}
		p = p[n:]
		return v, nil
	}
	cell, err := rd()
	if err != nil {
		return h, err
	}
	rnti, err := rd()
	if err != nil {
		return h, err
	}
	count, err := rd()
	if err != nil {
		return h, err
	}
	ncols, err := rd()
	if err != nil {
		return h, err
	}
	if cell > math.MaxUint16 || rnti > math.MaxUint16 || count > 1<<24 || ncols > 64 {
		return h, fmt.Errorf("lake: implausible block header")
	}
	h.cell, h.rnti, h.count = uint16(cell), uint16(rnti), int(count)
	var lens [64]uint64
	var total uint64
	for i := range lens[:ncols] {
		if lens[i], err = rd(); err != nil {
			return h, err
		}
		if lens[i] > uint64(len(p)) {
			return h, fmt.Errorf("lake: block columns overflow payload")
		}
		total += lens[i]
	}
	// Every row takes at least one byte of every column.
	if total > uint64(len(p)) || count > total {
		return h, fmt.Errorf("lake: block columns overflow payload")
	}
	h.cols = cols[:0]
	for _, l := range lens[:ncols] {
		h.cols = append(h.cols, p[:l])
		p = p[l:]
	}
	return h, nil
}

// decodeBinIdx decodes the delta-of-delta bin-index column into out.
func decodeBinIdx(col []byte, count int, out []int64) ([]int64, error) {
	out = out[:0]
	var prev, prevDelta int64
	for i := 0; i < count; i++ {
		v, n := binary.Varint(col)
		if n <= 0 {
			return nil, fmt.Errorf("lake: truncated bin-index column")
		}
		col = col[n:]
		switch i {
		case 0:
			prev = v
		case 1:
			prevDelta = v
			prev += v
		default:
			prevDelta += v
			prev += prevDelta
		}
		out = append(out, prev)
	}
	return out, nil
}

// allCols selects every column of a series block; spareCol is the
// spare-bits column, stored as Float64bits uvarints.
const (
	allCols  = 1<<binColumns - 1
	spareCol = binColumns - 1
)

// blockRows is one series block decoded into buffers reused from block
// to block: row i holds bin index idx[i], and bins[i] carries the fields
// of the decoded columns (the others stay zero).
type blockRows struct {
	idx  []int64
	bins []history.Bin
}

// decodeSeriesBlock decodes a series block's bin-index column and the
// value columns that cols selects (bit c for column c) into r.
func decodeSeriesBlock(h blockHeader, cols uint16, r *blockRows) error {
	if len(h.cols) != binColumns {
		return fmt.Errorf("lake: series block has %d columns, want %d", len(h.cols), binColumns)
	}
	var err error
	if r.idx, err = decodeBinIdx(h.cols[0], h.count, r.idx); err != nil {
		return err
	}
	r.bins = slices.Grow(r.bins[:0], h.count)[:h.count]
	clear(r.bins)
	for c := 1; c < binColumns; c++ {
		if cols&(1<<c) == 0 {
			continue
		}
		p := h.cols[c]
		for i := range r.bins {
			u, n := binary.Uvarint(p)
			if n <= 0 {
				return fmt.Errorf("lake: truncated value column %d", c)
			}
			p = p[n:]
			v := int64(u>>1) ^ -int64(u&1) // zigzag, as binary.Varint
			b := &r.bins[i]
			switch c {
			case 1:
				b.DLBits = v
			case 2:
				b.ULBits = v
			case 3:
				b.Grants = v
			case 4:
				b.Retx = v
			case 5:
				b.PRBs = v
			case 6:
				b.MCSSum = v
			case 7:
				b.MCSCount = v
			case 8:
				b.MCSMin = int(v)
			case 9:
				b.MCSMax = int(v)
			case 10:
				b.UsedREs = v
			case 11:
				b.TotalREs = v
			case spareCol:
				b.SpareBits = math.Float64frombits(u)
			}
		}
	}
	return nil
}

// decodeAnomalyBlock reconstructs an anomaly block's events.
func decodeAnomalyBlock(h blockHeader, visit func(a history.Anomaly)) error {
	if len(h.cols) != anomColumns {
		return fmt.Errorf("lake: anomaly block has %d columns, want %d", len(h.cols), anomColumns)
	}
	cells, rntis := h.cols[0], h.cols[1]
	kinds := h.cols[2]
	floats := [3][]byte{h.cols[3], h.cols[4], h.cols[5]}
	for i := 0; i < h.count; i++ {
		var a history.Anomaly
		v, n := binary.Uvarint(cells)
		if n <= 0 {
			return fmt.Errorf("lake: truncated anomaly cell column")
		}
		cells = cells[n:]
		a.Cell = uint16(v)
		if v, n = binary.Uvarint(rntis); n <= 0 {
			return fmt.Errorf("lake: truncated anomaly rnti column")
		}
		rntis = rntis[n:]
		a.RNTI = uint16(v)
		if v, n = binary.Uvarint(kinds); n <= 0 || v > uint64(len(kinds)-n) {
			return fmt.Errorf("lake: truncated anomaly kind column")
		}
		a.Kind = string(kinds[n : n+int(v)])
		kinds = kinds[n+int(v):]
		dst := [3]*float64{&a.AtMs, &a.Value, &a.Baseline}
		for c := range floats {
			if v, n = binary.Uvarint(floats[c]); n <= 0 {
				return fmt.Errorf("lake: truncated anomaly float column %d", c)
			}
			floats[c] = floats[c][n:]
			*dst[c] = math.Float64frombits(v)
		}
		visit(a)
	}
	return nil
}
