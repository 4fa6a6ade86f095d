package lake

import (
	"cmp"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"nrscope/internal/history"
	"nrscope/internal/obs"
)

// The background writer: drains the spill queue into per-cell
// segments, seals segments at the size threshold, and periodically
// runs the maintenance pass (compaction + retention). It is the sole
// mutator of the segment maps and the published index; readers see
// index updates only under l.mu.

// maintainEvery is how many flush ticks pass between maintenance
// passes.
const maintainEvery = 10

func (l *Lake) writerLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.cfg.FlushInterval)
	defer t.Stop()
	ticks := 0
	for {
		select {
		case <-l.done:
			if !l.abandoned.Load() {
				l.flushOnce()
			}
			return
		case <-l.notify:
			l.flushOnce()
		case ack := <-l.syncCh:
			for {
				l.flushOnce()
				if l.pushIdx.Load() == l.popIdx.Load() {
					break
				}
			}
			close(ack)
		case <-t.C:
			l.flushOnce()
			if ticks++; ticks >= maintainEvery {
				ticks = 0
				l.maintain()
			}
		}
	}
}

// flushOnce moves the pending ring into the inflight buffer, writes it
// out, and publishes the resulting block refs. Readers holding l.mu +
// l.qmu always see each entry exactly once: in pending, in inflight,
// or in the index — the inflight→index transition happens under both
// locks.
func (l *Lake) flushOnce() {
	if l.pushIdx.Load() == l.popIdx.Load() {
		return
	}
	l.qmu.Lock()
	pop := l.popIdx.Load()
	push := l.pushIdx.Load() // acquire: slots below push are fully written
	n := int(push - pop)
	if n == 0 {
		l.qmu.Unlock()
		return
	}
	if cap(l.inflight) < n {
		l.inflight = make([]entry, 0, max(n, 2*cap(l.inflight)))
	}
	inf := l.inflight[:0]
	for i := pop; i < push; i++ {
		inf = append(inf, l.pending[i%uint64(len(l.pending))])
	}
	l.inflight = inf
	// Freeing the slots must come after the copy: the producer reuses
	// them as soon as it observes the new popIdx.
	l.popIdx.Store(push)
	l.qmu.Unlock()
	// Sampled at drain time: the depth the queue reached between flushes.
	share(met.queuedEntries, &l.stQueued, int64(n))

	start := time.Now()
	refs := l.writeBatch(inf)
	met.writeSeconds.Observe(time.Since(start).Seconds())

	var bins, anoms int64
	for _, r := range refs {
		if r.kind == kindAnomaly {
			anoms += int64(r.count)
		} else {
			bins += int64(r.count)
		}
	}
	met.spilledBins.Add(bins)
	met.spilledAnoms.Add(anoms)
	l.stBins.Add(bins)
	l.stAnoms.Add(anoms)

	l.mu.Lock()
	l.qmu.Lock()
	l.publishRefs(refs)
	l.inflight = l.inflight[:0]
	l.qmu.Unlock()
	l.mu.Unlock()
	l.updateTotals()
}

// publishRefs folds block refs into the queryable index. Callers hold
// l.mu (or run single-threaded during Open).
func (l *Lake) publishRefs(refs []blockRef) {
	for _, r := range refs {
		r.seg.indexed = true
		if r.kind == kindAnomaly {
			r.seg.maxMs = max(r.seg.maxMs, r.maxIdx) // anomaly ref bounds are in ms
			l.anomRefs = append(l.anomRefs, r)
			continue
		}
		r.seg.maxIdx = max(r.seg.maxIdx, r.maxIdx)
		if r.count == 0 {
			continue // holds nothing to find
		}
		k := seriesKey{cell: r.cell, rnti: r.rnti, kind: r.kind}
		si := l.series[k]
		if si == nil {
			si = &seriesIndex{}
			l.series[k] = si
		}
		si.add(r)
		l.maxIdx = max(l.maxIdx, r.maxIdx)
	}
}

// writeBatch encodes one drained batch into per-series blocks appended
// to the owning cells' active segments. It must not mutate the batch
// slice itself (readers scan it as inflight): runs hold int32 indices
// into the batch, not entry copies — 4 bytes moved per row instead of
// the full 170-byte entry. Bucketing replaces sorting — within one
// series, spills arrive in ascending order already (the store lock
// serializes them and rings evict oldest-first), so the whole path is
// O(n) even when the queue backs up to 100k+ entries.
func (l *Lake) writeBatch(batch []entry) []blockRef {
	for i := range batch {
		e := &batch[i]
		k := seriesKey{cell: e.cell, rnti: e.rnti, kind: e.kind}
		bi, ok := l.buckets[k]
		if !ok {
			bi = len(l.runs)
			l.buckets[k] = bi
			l.runs = append(l.runs, nil)
			l.runKeys = append(l.runKeys, k)
		}
		l.runs[bi] = append(l.runs[bi], int32(i))
	}
	refs := l.wrefs[:0]
	for bi := range l.runs {
		run := l.runs[bi]
		if len(run) == 0 {
			continue
		}
		l.runs[bi] = run[:0]
		k := l.runKeys[bi]
		var payload []byte
		if k.kind == kindAnomaly {
			payload = l.enc.anomalyBlock(k.cell, batch, run)
		} else {
			payload = l.enc.seriesBlock(k.kind, k.cell, k.rnti, batch, run)
		}
		a, err := l.activeFor(k.cell)
		if err != nil {
			met.writeErrors.Inc()
			continue
		}
		off, err := a.seg.appendBlock(payload)
		if err != nil {
			met.writeErrors.Inc()
			continue
		}
		r := blockRef{
			seg: a.seg, off: off, plen: len(payload),
			kind: k.kind, cell: k.cell, rnti: k.rnti,
			count: len(run),
		}
		for i, bi := range run {
			v := batch[bi].binIdx
			if k.kind == kindAnomaly {
				v = int64(batch[bi].anom.AtMs) // anomaly ref bounds are in ms
			}
			if i == 0 {
				r.minIdx, r.maxIdx = v, v
			}
			r.minIdx, r.maxIdx = min(r.minIdx, v), max(r.maxIdx, v)
		}
		a.refs = append(a.refs, r)
		refs = append(refs, r)
	}
	for cell, a := range l.actives {
		if a.seg.size >= l.cfg.SegmentBytes {
			if err := a.seg.seal(a.refs); err != nil {
				met.writeErrors.Inc()
				continue
			}
			delete(l.actives, cell)
		}
	}
	l.wrefs = refs
	return refs
}

// activeFor returns the cell's unsealed segment, creating one (and
// recording it in the manifest before first use) if needed.
func (l *Lake) activeFor(cell uint16) (*active, error) {
	if a, ok := l.actives[cell]; ok {
		return a, nil
	}
	seq := l.nextSeq
	l.nextSeq++
	name := segName(cell, seq)
	path := filepath.Join(l.dir, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	seg, err := createSegment(path, name, seq, cell)
	if err != nil {
		return nil, err
	}
	if err := l.man.add(name); err != nil {
		seg.close()
		os.Remove(path)
		return nil, err
	}
	l.segs[name] = seg
	a := &active{seg: seg}
	l.actives[cell] = a
	return a, nil
}

// updateTotals refreshes the segment-count and byte gauges.
func (l *Lake) updateTotals() {
	var bytes int64
	for _, s := range l.segs {
		bytes += s.size
	}
	share(met.segments, &l.stSegments, int64(len(l.segs)))
	share(met.bytes, &l.stBytes, bytes)
}

// share moves one lake's share of the process-wide gauge g from last
// to v, so with several lakes open (one per shard) g reads their sum
// rather than whichever lake wrote last.
func share(g *obs.Gauge, last *atomic.Int64, v int64) {
	g.Add(v - last.Swap(v))
}

// withdraw takes the lake's shares back out of the process-wide gauges
// once its writer has exited; Stats keeps reporting the last values.
func (l *Lake) withdraw() {
	met.segments.Add(-l.stSegments.Load())
	met.bytes.Add(-l.stBytes.Load())
	met.queuedEntries.Add(-l.stQueued.Load())
}

// maintain runs one compaction + retention pass.
func (l *Lake) maintain() {
	l.compact()
	l.retention()
	l.updateTotals()
}

// compact merges cells' accumulations of small sealed segments into
// one, re-encoding so duplicate bin indices (partial bins from series
// evict/re-create cycles) collapse into single merged rows.
func (l *Lake) compact() {
	byCell := make(map[uint16][]*segment)
	for _, seg := range l.segs {
		if seg.sealed && seg.size < l.cfg.SegmentBytes {
			byCell[seg.cell] = append(byCell[seg.cell], seg)
		}
	}
	for cell, victims := range byCell {
		if len(victims) < l.cfg.CompactMinSegments {
			continue
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].seq < victims[j].seq })
		l.compactCell(cell, victims)
	}
}

func (l *Lake) compactCell(cell uint16, victims []*segment) {
	inSet := make(map[*segment]bool, len(victims))
	for _, v := range victims {
		inSet[v] = true
	}

	// Decode everything the victims hold. Compaction is rare; this
	// path allocates freely.
	merged := make(map[seriesKey]map[int64]history.Bin)
	var anoms []history.Anomaly
	// The writer is the index's only mutator, so reading it lock-free
	// from the writer goroutine is safe.
	var refs []blockRef
	for _, si := range l.series {
		for _, r := range si.refs {
			if inSet[r.seg] {
				refs = append(refs, r)
			}
		}
	}
	var br blockReader
	br.read(refs, allCols, func(r *blockRef) {
		k := seriesKey{cell: r.cell, rnti: r.rnti, kind: r.kind}
		m := merged[k]
		if m == nil {
			m = make(map[int64]history.Bin)
			merged[k] = m
		}
		for i, idx := range br.idx {
			old := m[idx]
			old.Merge(br.bins[i])
			m[idx] = old
		}
	})
	readAnomalies(l.anomRefs, inSet, func(a history.Anomaly) { anoms = append(anoms, a) })

	seq := l.nextSeq
	l.nextSeq++
	name := segName(cell, seq)
	path := filepath.Join(l.dir, filepath.FromSlash(name))
	seg, err := createSegment(path, name, seq, cell)
	if err != nil {
		met.writeErrors.Inc()
		return
	}
	abort := func() {
		seg.close()
		os.Remove(path)
		met.writeErrors.Inc()
	}
	var newRefs []blockRef
	keys := make([]seriesKey, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b seriesKey) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.rnti, b.rnti))
	})
	for _, k := range keys {
		rows := merged[k]
		es := make([]entry, 0, len(rows))
		for idx, b := range rows {
			es = append(es, entry{cell: k.cell, rnti: k.rnti, kind: k.kind, binIdx: idx, bin: b})
		}
		sort.Slice(es, func(i, j int) bool { return es[i].binIdx < es[j].binIdx })
		payload := l.enc.seriesBlock(k.kind, k.cell, k.rnti, es, seqIdxs(len(es)))
		off, err := seg.appendBlock(payload)
		if err != nil {
			abort()
			return
		}
		newRefs = append(newRefs, blockRef{
			seg: seg, off: off, plen: len(payload),
			kind: k.kind, cell: k.cell, rnti: k.rnti,
			minIdx: es[0].binIdx, maxIdx: es[len(es)-1].binIdx, count: len(es),
		})
	}
	if len(anoms) > 0 {
		sort.SliceStable(anoms, func(i, j int) bool { return anoms[i].AtMs < anoms[j].AtMs })
		es := make([]entry, 0, len(anoms))
		for _, a := range anoms {
			es = append(es, entry{cell: cell, kind: kindAnomaly, anom: a})
		}
		payload := l.enc.anomalyBlock(cell, es, seqIdxs(len(es)))
		off, err := seg.appendBlock(payload)
		if err != nil {
			abort()
			return
		}
		newRefs = append(newRefs, blockRef{
			seg: seg, off: off, plen: len(payload),
			kind: kindAnomaly, cell: cell,
			minIdx: int64(anoms[0].AtMs), maxIdx: int64(anoms[len(anoms)-1].AtMs),
			count: len(anoms),
		})
	}
	if err := seg.seal(newRefs); err != nil {
		abort()
		return
	}
	oldNames := make([]string, len(victims))
	for i, v := range victims {
		oldNames[i] = v.name
	}
	// One atomic manifest line: replay either sees the victims or the
	// merged segment, never both and never neither.
	if err := l.man.swap(name, oldNames); err != nil {
		abort()
		return
	}

	l.mu.Lock()
	l.dropSegRefsLocked(inSet)
	l.publishRefs(newRefs)
	l.mu.Unlock()

	l.segs[name] = seg
	for _, v := range victims {
		delete(l.segs, v.name)
		v.close()
		os.Remove(v.path)
	}
	met.compactions.Inc()
	l.stCompact.Add(1)
}

// dropSegRefsLocked removes every index ref pointing into the given
// segments. Caller holds l.mu.
func (l *Lake) dropSegRefsLocked(victims map[*segment]bool) {
	for k, si := range l.series {
		refs := si.refs
		*si = seriesIndex{refs: refs[:0]}
		for _, r := range refs {
			if !victims[r.seg] {
				si.add(r)
			}
		}
		if len(si.refs) == 0 {
			delete(l.series, k)
		}
	}
	l.anomRefs = slices.DeleteFunc(l.anomRefs, func(r blockRef) bool { return victims[r.seg] })
}

// retention deletes sealed segments wholly behind the horizon.
func (l *Lake) retention() {
	if l.cfg.Retention <= 0 {
		return
	}
	horizonBins := int64(l.cfg.Retention / l.cfg.BinWidth)
	l.mu.RLock()
	cutoff := l.maxIdx - horizonBins
	l.mu.RUnlock()
	if cutoff <= 0 {
		return
	}
	cutoffMs := float64(cutoff) * float64(l.cfg.BinWidth) / float64(time.Millisecond)

	for name, seg := range l.segs {
		if !seg.sealed || !seg.indexed || seg.maxIdx >= cutoff || float64(seg.maxMs) >= cutoffMs {
			continue
		}
		victims := map[*segment]bool{seg: true}
		l.mu.Lock()
		l.dropSegRefsLocked(victims)
		l.mu.Unlock()
		if err := l.man.del(name); err != nil {
			met.writeErrors.Inc()
		}
		delete(l.segs, name)
		seg.close()
		os.Remove(seg.path)
		met.retired.Inc()
	}
}
