package main

import (
	"fmt"
	"math"
	"sort"

	"nrscope/internal/history"
	"nrscope/internal/telemetry"
)

// truthBin is a history bin recomputed here from the recording, without
// the store: the sums a query must return.
type truthBin struct {
	dl, ul, grants, retx, prbs int64
	mcsMin, mcsMax             int
}

func (b *truthBin) add(r *telemetry.Record) {
	if b.grants == 0 || r.MCS < b.mcsMin {
		b.mcsMin = r.MCS
	}
	if b.grants == 0 || r.MCS > b.mcsMax {
		b.mcsMax = r.MCS
	}
	b.grants++
	b.prbs += int64(r.NumPRB)
	switch {
	case r.IsRetx:
		b.retx++
	case r.Downlink:
		b.dl += int64(r.TBS)
	default:
		b.ul += int64(r.TBS)
	}
}

// metroTruth indexes the recording by series so a query's expected
// answer costs a walk over that series' records only.
type metroTruth struct {
	rig    *metroRig
	total  int // records of the replayed stream that were ingested
	byUE   map[seriesKey][]int32
	byCell map[uint16][]int32
}

func newMetroTruth(rig *metroRig, total int) *metroTruth {
	t := &metroTruth{rig: rig, total: total, byUE: make(map[seriesKey][]int32), byCell: make(map[uint16][]int32)}
	for i := range rig.items {
		it := &rig.items[i]
		k := seriesKey{it.cell, it.rec.RNTI}
		t.byUE[k] = append(t.byUE[k], int32(i))
		t.byCell[it.cell] = append(t.byCell[it.cell], int32(i))
	}
	return t
}

// bins folds the series' ingested records whose bin index lies in
// [fromIdx, toIdx].
func (t *metroTruth) bins(indices []int32, fromIdx, toIdx int64) map[int64]*truthBin {
	out := make(map[int64]*truthBin)
	n := len(t.rig.items)
	repMs := float64(metroSlots) * t.rig.ttiMs
	firstRep := max(0, int(float64(fromIdx)*metroBinMs/repMs)-1)
	lastRep := min((t.total-1)/n, int(float64(toIdx+1)*metroBinMs/repMs)+1)
	for rep := firstRep; rep <= lastRep; rep++ {
		for _, i := range indices {
			gi := rep*n + int(i)
			if gi >= t.total {
				break
			}
			_, rec := t.rig.at(gi)
			idx := int64(rec.TMs / metroBinMs)
			if idx < fromIdx || idx > toIdx {
				continue
			}
			b := out[idx]
			if b == nil {
				b = &truthBin{}
				out[idx] = b
			}
			b.add(&rec)
		}
	}
	return out
}

// check compares one query's answer with the recording.
func (t *metroTruth) check(q metroQuery, samples []history.BinSample, ranks []history.UERank) error {
	if q.kind == "topk" {
		return t.checkTopK(q, ranks)
	}
	indices := t.byUE[q.key]
	if q.kind == "cell" {
		indices = t.byCell[q.key.cell]
	}
	want := t.bins(indices, int64(q.fromMs/metroBinMs), int64((q.toMs-1e-9)/metroBinMs))
	for _, s := range samples {
		idx := int64(math.Round(s.StartMs / metroBinMs))
		w := want[idx]
		if w == nil {
			w = &truthBin{}
		}
		delete(want, idx)
		got := truthBin{dl: s.DLBits, ul: s.ULBits, grants: s.Grants, retx: s.Retx, prbs: s.PRBs, mcsMin: s.MCSMin, mcsMax: s.MCSMax}
		if got != *w {
			return fmt.Errorf("bin %d: store %+v, recording %+v", idx, got, *w)
		}
	}
	for idx, w := range want {
		return fmt.Errorf("bin %d missing from the answer: recording has %+v", idx, *w)
	}
	return nil
}

func (t *metroTruth) checkTopK(q metroQuery, ranks []history.UERank) error {
	fromIdx, toIdx := int64(q.fromMs/metroBinMs), int64(q.toMs/metroBinMs)
	want := make([]history.UERank, 0, len(t.byUE))
	for key, indices := range t.byUE {
		var v float64
		for _, b := range t.bins(indices, fromIdx, toIdx) {
			if q.metric == "grants" {
				v += float64(b.grants)
			} else {
				v += float64(b.dl)
			}
		}
		want = append(want, history.UERank{Cell: key.cell, RNTI: key.rnti, Value: v})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Value != want[j].Value {
			return want[i].Value > want[j].Value
		}
		if want[i].Cell != want[j].Cell {
			return want[i].Cell < want[j].Cell
		}
		return want[i].RNTI < want[j].RNTI
	})
	want = want[:min(len(want), len(ranks))]
	if len(ranks) == 0 {
		return fmt.Errorf("empty ranking")
	}
	for i := range ranks {
		if ranks[i] != want[i] {
			return fmt.Errorf("rank %d: store %+v, recording %+v", i, ranks[i], want[i])
		}
	}
	return nil
}
