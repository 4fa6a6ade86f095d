package lake

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nrscope/internal/history"
)

// Config tunes a Lake. The zero value is usable: every field defaults
// sensibly in Open.
type Config struct {
	// SegmentBytes is the size at which an active segment is sealed and
	// a fresh one started (default 8 MiB).
	SegmentBytes int64
	// Retention drops sealed segments wholly older than this horizon
	// behind the newest spilled bin (0 = keep everything).
	Retention time.Duration
	// BinWidth is the history store's bin width, used to convert the
	// retention horizon into bin indices (default 100 ms — keep it in
	// sync with the store's).
	BinWidth time.Duration
	// QueueDepth is the spill ring capacity between the ingest path and
	// the background writer (default 16384). Overflow drops entries
	// (counted) rather than blocking ingest.
	QueueDepth int
	// FlushInterval is the background writer's wake cadence
	// (default 50 ms).
	FlushInterval time.Duration
	// CompactMinSegments is how many small sealed segments a cell
	// accumulates before they are merged into one (default 4).
	CompactMinSegments int
}

func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.BinWidth <= 0 {
		c.BinWidth = 100 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16384
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 50 * time.Millisecond
	}
	if c.CompactMinSegments <= 0 {
		c.CompactMinSegments = 4
	}
	return c
}

// seriesKey identifies one spilled series.
type seriesKey struct {
	cell, rnti uint16
	kind       uint8
}

// seriesIndex is one series' published blocks and the bin-index bounds
// across them, so a series wholly outside a window costs one compare.
// refs is sorted by minIdx (ties in publish order) and reach[i] is the
// largest maxIdx of refs[:i+1], so a window's first candidate is found
// by binary search and its scan stops at the first ref that starts past
// the window. That stays exact when blocks overlap or arrive out of
// order: a compacted block, refs published at reopen, a series
// re-created after eviction.
type seriesIndex struct {
	minIdx, maxIdx int64
	refs           []blockRef
	reach          []int64
}

// add indexes r. A ref that starts no earlier than the last one, the
// common case, is appended; any other is inserted in place.
func (si *seriesIndex) add(r blockRef) {
	n := len(si.refs)
	if n == 0 {
		si.minIdx, si.maxIdx = r.minIdx, r.maxIdx
	}
	si.minIdx, si.maxIdx = min(si.minIdx, r.minIdx), max(si.maxIdx, r.maxIdx)
	if n == 0 || r.minIdx >= si.refs[n-1].minIdx {
		si.refs = append(si.refs, r)
		si.reach = append(si.reach, max(r.maxIdx, si.maxIdx))
		return
	}
	i := sort.Search(n, func(j int) bool { return si.refs[j].minIdx > r.minIdx })
	si.refs = slices.Insert(si.refs, i, r)
	si.reach = slices.Insert(si.reach, i, r.maxIdx)
	for j := i; j <= n; j++ {
		si.reach[j] = si.refs[j].maxIdx
		if j > 0 {
			si.reach[j] = max(si.reach[j], si.reach[j-1])
		}
	}
}

// appendOverlapping appends to dst the refs holding bins in [fromIdx,
// toIdx], by first bin; a nil index holds none.
func (si *seriesIndex) appendOverlapping(dst []blockRef, fromIdx, toIdx int64) []blockRef {
	if si == nil || si.maxIdx < fromIdx || si.minIdx > toIdx {
		return dst
	}
	for i := sort.Search(len(si.reach), func(j int) bool { return si.reach[j] >= fromIdx }); i < len(si.refs) && si.refs[i].minIdx <= toIdx; i++ {
		if si.refs[i].maxIdx >= fromIdx {
			dst = append(dst, si.refs[i])
		}
	}
	return dst
}

// active is a cell's unsealed segment plus the refs its footer will
// index when sealed.
type active struct {
	seg  *segment
	refs []blockRef
}

// Stats is a point-in-time summary of the lake, for exit reports.
type Stats struct {
	Segments          int
	Bytes             int64
	SpilledBins       int64
	SpilledAnomalies  int64
	DroppedEntries    int64
	Compactions       int64
	RecoveredSegments int64
}

// Lake is the on-disk spill target. It implements history.Lake: spill
// methods enqueue into a bounded ring without blocking or allocating
// (they run under the history store's lock, on the ingest path); a
// background writer drains the ring into per-cell columnar segments;
// read methods answer from the segment index plus whatever is still
// queued, so a spilled bin is never invisible.
type Lake struct {
	dir string
	cfg Config

	// mu guards the published index (series, anomRefs) and the
	// aggregate gauges. Lock order: history store lock → mu → qmu.
	mu       sync.RWMutex
	series   map[seriesKey]*seriesIndex
	anomRefs []blockRef
	maxIdx   int64 // newest spilled bin index (retention anchor)

	// Writer-goroutine-only state (plus Open before the writer starts
	// and Close after it stops).
	segs    map[string]*segment // every live segment, by manifest name
	actives map[uint16]*active
	man     *manifest
	nextSeq uint64
	enc     encoder
	buckets map[seriesKey]int // series -> index into runs
	runs    [][]int32         // reusable per-series row-index buffers
	runKeys []seriesKey
	wrefs   []blockRef

	// The spill queue is an SPSC ring: the producer side always runs
	// under the history store's lock (spills and reads both do), so push
	// is lock-free — write the slot, then publish via the atomic pushIdx.
	// qmu serializes only the consumer's ring→inflight move against
	// readers, keeping every entry visible exactly once.
	qmu     sync.Mutex
	pending []entry
	// pushIdx sits on its own cache line: the producer stores it every
	// push and the consumer polls it; sharing a line with popIdx would
	// ping-pong on every spill.
	_       [64]byte
	pushIdx atomic.Uint64
	// cachedPop is producer-owned: the producer re-reads the shared
	// popIdx only when the ring looks full against this stale copy.
	cachedPop uint64
	_         [64]byte
	popIdx    atomic.Uint64
	_         [64]byte
	inflight  []entry
	closed    atomic.Bool

	notify    chan struct{}
	syncCh    chan chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	abandoned atomic.Bool

	stSegments atomic.Int64
	stBytes    atomic.Int64
	stBins     atomic.Int64
	stAnoms    atomic.Int64
	stDropped  atomic.Int64
	stCompact  atomic.Int64
	stRecover  atomic.Int64
	stQueued   atomic.Int64 // the depth last published to nrscope_lake_queue_depth
}

// Open creates or reopens a lake rooted at dir. Recovery replays the
// manifest, loads sealed segments via their footer, rescues unsealed
// ones by CRC scan (truncating torn tails), removes orphan files the
// manifest never learned about, and starts the background writer.
func Open(dir string, cfg Config) (*Lake, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, names, err := openManifest(dir)
	if err != nil {
		return nil, err
	}
	l := &Lake{
		dir:     dir,
		cfg:     cfg,
		series:  make(map[seriesKey]*seriesIndex),
		segs:    make(map[string]*segment),
		actives: make(map[uint16]*active),
		buckets: make(map[seriesKey]int),
		man:     man,
		pending: make([]entry, cfg.QueueDepth),
		notify:  make(chan struct{}, 1),
		syncCh:  make(chan chan struct{}),
		done:    make(chan struct{}),
	}
	live := make(map[string]bool, len(names))
	for _, name := range names {
		live[name] = true
		cell, seq, _ := parseSegName(name) // openManifest returns only names that parse
		path := filepath.Join(dir, filepath.FromSlash(name))
		seg, refs, recovered, oerr := openSegment(path, name, seq, cell)
		if oerr != nil {
			if os.IsNotExist(oerr) {
				continue
			}
			l.closeAll()
			return nil, oerr
		}
		if recovered {
			met.recovered.Inc()
			l.stRecover.Add(1)
		}
		l.segs[name] = seg
		l.publishRefs(refs)
		l.nextSeq = max(l.nextSeq, seq+1)
	}
	l.removeOrphans(live)
	l.updateTotals()
	l.wg.Add(1)
	go l.writerLoop()
	return l, nil
}

// segName formats a segment's manifest-relative name.
func segName(cell uint16, seq uint64) string {
	return fmt.Sprintf("cell-%05d/seg-%08d.seg", cell, seq)
}

// parseSegName inverts segName. A name is accepted only if segName
// reproduces it exactly, so a manifest line can name nothing but a
// segment file inside the lake: no out-of-range cell, no trailing path.
func parseSegName(name string) (uint16, uint64, error) {
	var cell uint16
	var seq uint64
	if _, err := fmt.Sscanf(name, "cell-%d/seg-%d.seg", &cell, &seq); err != nil || segName(cell, seq) != name {
		return 0, 0, fmt.Errorf("lake: bad segment name %q", name)
	}
	return cell, seq, nil
}

// removeOrphans deletes *.seg files on disk that the manifest does not
// know (a crash between file create and manifest add).
func (l *Lake) removeOrphans(live map[string]bool) {
	matches, _ := filepath.Glob(filepath.Join(l.dir, "cell-*", "seg-*.seg"))
	for _, m := range matches {
		rel, err := filepath.Rel(l.dir, m)
		if err != nil {
			continue
		}
		if !live[filepath.ToSlash(rel)] {
			os.Remove(m)
		}
	}
}

// --- history.Lake: the spill side (ingest path, store lock held) ---

// SpillBin enqueues one evicted bin. Never blocks, never allocates; a
// full queue drops the entry and counts it. The Bin is copied exactly
// once, straight into the ring slot — it runs under the store lock on
// the ingest hot path, so every avoided copy shows up in ingest ns/op.
func (l *Lake) SpillBin(cell, rnti uint16, cellSeries bool, binIdx int64, b *history.Bin) {
	slot, push := l.reserve()
	if slot == nil {
		return
	}
	slot.cell, slot.rnti = cell, rnti
	slot.kind = kindOf(cellSeries)
	slot.binIdx = binIdx
	slot.bin = *b
	l.commit(push)
}

// SpillAnomaly enqueues one anomaly event evicted from the bounded
// ring. Stale series fields in the reused slot are left as-is — every
// reader dispatches on kind first.
func (l *Lake) SpillAnomaly(a history.Anomaly) {
	slot, push := l.reserve()
	if slot == nil {
		return
	}
	slot.cell, slot.rnti = a.Cell, 0
	slot.kind = kindAnomaly
	slot.anom = a
	l.commit(push)
}

// reserve claims the next free ring slot, or returns nil if the lake
// is closed or the ring is full (the drop is counted). Runs on the
// ingest hot path under the history store's lock: no mutex, no
// allocation. The caller fills the slot and publishes it with commit —
// readers cannot observe the half-filled slot because they only visit
// slots below the acquire-loaded pushIdx, and a slot is never reused
// while a reader holds qmu (the consumer cannot advance popIdx).
func (l *Lake) reserve() (*entry, uint64) {
	if l.closed.Load() {
		met.dropped.Inc()
		l.stDropped.Add(1)
		return nil, 0
	}
	cap := uint64(len(l.pending))
	push := l.pushIdx.Load()
	if push-l.cachedPop == cap {
		l.cachedPop = l.popIdx.Load()
		if push-l.cachedPop == cap {
			met.dropped.Inc()
			l.stDropped.Add(1)
			return nil, 0
		}
	}
	return &l.pending[push%cap], push
}

// commit publishes the slot claimed at push.
func (l *Lake) commit(push uint64) {
	// The slot write must be visible before the index: the consumer
	// acquires via this store's matching Load.
	l.pushIdx.Store(push + 1)
	// Queued entries are already query-visible, so routine drains can
	// wait for the flush ticker; the notify poke is reserved for
	// backpressure (ring half full). Refresh the stale consumer index
	// first so an already-drained ring doesn't notify spuriously.
	cap := uint64(len(l.pending))
	if 2*(push+1-l.cachedPop) >= cap {
		l.cachedPop = l.popIdx.Load()
		if 2*(push+1-l.cachedPop) >= cap {
			select {
			case l.notify <- struct{}{}:
			default:
			}
		}
	}
}

// --- history.Lake: the read side (query path, store lock held) ---

// queued visits every entry the writer has not yet indexed: the ring,
// then the inflight batch. Caller holds l.mu (either mode) and the
// history store's lock, so the producer cannot push concurrently;
// holding qmu keeps the consumer from advancing popIdx underneath.
func (l *Lake) queued(visit func(*entry)) {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	for i := l.popIdx.Load(); i < l.pushIdx.Load(); i++ {
		visit(&l.pending[i%uint64(len(l.pending))])
	}
	for i := range l.inflight {
		visit(&l.inflight[i])
	}
}

// ReadSeries visits every spilled bin of one series in [fromIdx,
// toIdx]: indexed blocks first, in write order, then entries still
// queued behind the writer. It finds the window's blocks by binary
// search in the series index and slices them from the segments'
// mappings; a block that fails its frame or CRC check, or whose mapped
// bytes fault, is skipped and counted.
func (l *Lake) ReadSeries(cell, rnti uint16, cellSeries bool, fromIdx, toIdx int64, visit func(binIdx int64, b history.Bin)) error {
	start := time.Now()
	k := seriesKey{cell: cell, rnti: rnti, kind: kindOf(cellSeries)}
	br := readers.Get().(*blockReader)
	defer readers.Put(br)
	l.mu.RLock()
	defer l.mu.RUnlock()
	var stack [8]blockRef
	refs := l.series[k].appendOverlapping(stack[:0], fromIdx, toIdx)
	slices.SortFunc(refs, cmpRefs)
	br.read(refs, allCols, func(blockRef) {
		for i, idx := range br.idx {
			if idx >= fromIdx && idx <= toIdx {
				visit(idx, br.bins[i])
			}
		}
	})
	br.queued = br.queued[:0]
	l.queued(func(e *entry) {
		if e.kind == k.kind && e.cell == cell && e.rnti == rnti && e.binIdx >= fromIdx && e.binIdx <= toIdx {
			br.queued = append(br.queued, *e)
		}
	})
	for i := range br.queued {
		visit(br.queued[i].binIdx, br.queued[i].bin)
	}
	met.readSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// SeriesBounds reports the min/max spilled bin index of a series
// across indexed blocks and the queue.
func (l *Lake) SeriesBounds(cell, rnti uint16, cellSeries bool) (minIdx, maxIdx int64, ok bool) {
	k := seriesKey{cell: cell, rnti: rnti, kind: kindOf(cellSeries)}
	l.mu.RLock()
	defer l.mu.RUnlock()
	if si := l.series[k]; si != nil {
		minIdx, maxIdx, ok = si.minIdx, si.maxIdx, true
	}
	l.queued(func(e *entry) {
		if e.kind == k.kind && e.cell == cell && e.rnti == rnti {
			if !ok {
				minIdx, maxIdx, ok = e.binIdx, e.binIdx, true
			}
			minIdx, maxIdx = min(minIdx, e.binIdx), max(maxIdx, e.binIdx)
		}
	})
	return minIdx, maxIdx, ok
}

// ScanUEs returns partial sums of every UE series' spilled bins in
// [fromIdx, toIdx], for TopK: one walk of the index that skips series
// whose bounds miss the window and binary-searches the others, a read
// of the window's blocks from the mappings decoding only the bin-index
// column and m's columns, then the queue. Each series with in-window
// blocks gives one partial, its blocks' sums added in write order, and
// each queued entry one more.
func (l *Lake) ScanUEs(fromIdx, toIdx int64, m history.Metric) []history.UEPartial {
	start := time.Now()
	br := readers.Get().(*blockReader)
	defer readers.Put(br)
	l.mu.RLock()
	defer l.mu.RUnlock()
	refs, series := br.refs[:0], 0
	if fromIdx <= l.maxIdx {
		for k, si := range l.series {
			if k.kind != kindUE {
				continue
			}
			n := len(refs)
			if refs = si.appendOverlapping(refs, fromIdx, toIdx); len(refs) > n {
				slices.SortFunc(refs[n:], cmpRefs)
				series++
			}
		}
	}
	br.refs = refs
	out := make([]history.UEPartial, 0, series)
	var p history.UEPartial
	in := false
	br.read(refs, 1|uint16(m.Num|m.Den)<<1, func(r blockRef) {
		if r.cell != p.Cell || r.rnti != p.RNTI {
			if in {
				out = append(out, p)
			}
			p, in = history.UEPartial{Cell: r.cell, RNTI: r.rnti}, false
		}
		var num, den float64
		blockIn := false
		for i, idx := range br.idx {
			if idx >= fromIdx && idx <= toIdx {
				blockIn = true
				num += br.bins[i].Sum(m.Num)
				den += br.bins[i].Sum(m.Den)
			}
		}
		if blockIn {
			p.Num, p.Den, in = p.Num+num, p.Den+den, true
		}
	})
	if in {
		out = append(out, p)
	}
	l.queued(func(e *entry) {
		if e.kind == kindUE && e.binIdx >= fromIdx && e.binIdx <= toIdx {
			out = append(out, history.UEPartial{Cell: e.cell, RNTI: e.rnti, Num: e.bin.Sum(m.Num), Den: e.bin.Sum(m.Den)})
		}
	})
	met.readSeconds.Observe(time.Since(start).Seconds())
	return out
}

// Anomalies returns the spilled anomaly events, oldest first.
func (l *Lake) Anomalies() []history.Anomaly {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []history.Anomaly
	readAnomalies(l.anomRefs, nil, func(a history.Anomaly) { out = append(out, a) })
	l.queued(func(e *entry) {
		if e.kind == kindAnomaly {
			out = append(out, e.anom)
		}
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtMs < out[j].AtMs })
	return out
}

// readAnomalies decodes, in order, the anomaly blocks refs point at:
// all of them, or when only is set just those in its segments. Bad
// blocks, and blocks whose mapped bytes fault, are counted and skipped.
// The caller holds l.mu (either mode) or is the writer.
func readAnomalies(refs []blockRef, only map[*segment]bool, visit func(history.Anomaly)) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for i := range refs {
		if r := &refs[i]; only == nil || only[r.seg] {
			if decodeAnomalies(r, visit) != nil {
				met.crcErrors.Inc()
			}
		}
	}
}

func decodeAnomalies(r *blockRef, visit func(history.Anomaly)) (err error) {
	defer recoverFault(&err)
	payload, err := r.seg.block(r.off, r.plen)
	if err != nil {
		return err
	}
	h, err := parseBlockPayload(payload, nil)
	if err != nil {
		return err
	}
	return decodeAnomalyBlock(h, visit)
}

// --- lifecycle ---

// Sync flushes everything queued to disk and returns once the index
// covers it. Do not call while holding the history store's lock.
func (l *Lake) Sync() error {
	ack := make(chan struct{})
	select {
	case l.syncCh <- ack:
		<-ack
		return nil
	case <-l.done:
		return fmt.Errorf("lake: closed")
	}
}

// Close drains the queue, seals every active segment, and releases
// file handles. The lake must not be used afterwards.
func (l *Lake) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	close(l.done)
	l.wg.Wait()
	l.withdraw()
	var firstErr error
	if !l.abandoned.Load() {
		for cell, a := range l.actives {
			if err := a.seg.seal(a.refs); err != nil && firstErr == nil {
				firstErr = err
			}
			delete(l.actives, cell)
		}
	}
	if err := l.closeAll(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Abandon simulates a crash: the writer stops without a final flush,
// active segments stay unsealed (no footer), and file handles are
// released without fsync. Reopening the directory must recover. Kept:
// it is the crash hook the recovery tests need.
func (l *Lake) Abandon() {
	if l.closed.Swap(true) {
		return
	}
	l.abandoned.Store(true)
	close(l.done)
	l.wg.Wait()
	l.withdraw()
	l.closeAll()
}

// closeAll unmaps and closes every segment, under l.mu so that no read
// holds a mapping meanwhile, and then the manifest.
func (l *Lake) closeAll() error {
	var firstErr error
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.segs {
		if err := s.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if l.man != nil {
		if err := l.man.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats returns a point-in-time summary.
func (l *Lake) Stats() Stats {
	return Stats{
		Segments:          int(l.stSegments.Load()),
		Bytes:             l.stBytes.Load(),
		SpilledBins:       l.stBins.Load(),
		SpilledAnomalies:  l.stAnoms.Load(),
		DroppedEntries:    l.stDropped.Load(),
		Compactions:       l.stCompact.Load(),
		RecoveredSegments: l.stRecover.Load(),
	}
}
