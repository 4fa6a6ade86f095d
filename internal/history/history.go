// Package history is the queryable UE session-history store: it
// subscribes to the telemetry bus (Block policy, so it is lossless) and
// maintains, per cell and per C-RNTI, fixed-capacity ring-buffer time
// series of windowed aggregates — DL/UL bits, grant and retx counts,
// MCS min/avg/max, PRBs, spare-capacity share — at a configurable bin
// width (default 100 ms).
//
// The paper's headline use case feeds per-UE telemetry back to
// applications faster than half an RTT; this package is the read-side
// state that makes the feed *queryable*: "what was UE 0x4601's
// throughput over the last 2 s", "which UEs saw a retx spike". Memory
// is strictly bounded: each series retains Depth bins, at most MaxUEs
// UE series exist process-wide (idle-LRU eviction), and an optional
// idle horizon ages out silent sessions — so the store survives the
// ROADMAP's "millions of users" churn without growing without bound.
//
// On top of the store sit a Go query API (Query, TopK, Snapshot, UEs,
// Anomalies), which the shard supervisor serves over HTTP, and a first
// anomaly layer (anomaly.go) flagging per-UE retx-rate spikes
// and throughput collapse against a trailing EWMA baseline.
package history

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/telemetry"
)

// Config tunes a Store. The zero value is usable: every field defaults
// sensibly in New.
type Config struct {
	// BinWidth is the aggregation bin width (default 100 ms).
	BinWidth time.Duration
	// Depth is how many bins each series retains (default 600 — one
	// minute of history at the default bin width).
	Depth int
	// MaxUEs caps the number of UE series across all cells; beyond it
	// the least-recently-seen UE is evicted (default 10000).
	MaxUEs int
	// IdleHorizon evicts UE series idle longer than this, independent
	// of the LRU cap (0 = LRU-only).
	IdleHorizon time.Duration
	// AnomalyDepth is the anomaly ring capacity (default 256).
	AnomalyDepth int
	// MaxQuerySamples caps how many samples a single query may
	// materialize (default 100000). With a lake attached the queryable
	// span is no longer bounded by Depth, so an unconstrained
	// full-history query at downsample=1 could allocate without bound;
	// over-wide requests fail with a *TooWideError instead — narrow the
	// range or raise the downsample factor.
	MaxQuerySamples int
}

func (c Config) withDefaults() Config {
	if c.BinWidth <= 0 {
		c.BinWidth = 100 * time.Millisecond
	}
	if c.Depth <= 0 {
		c.Depth = 600
	}
	if c.MaxUEs <= 0 {
		c.MaxUEs = 10000
	}
	if c.AnomalyDepth <= 0 {
		c.AnomalyDepth = 256
	}
	if c.MaxQuerySamples <= 0 {
		c.MaxQuerySamples = 100000
	}
	return c
}

// ueKey identifies one C-RNTI on one cell (C-RNTIs are cell-local).
type ueKey struct {
	cell uint16
	rnti uint16
}

// ueSeries is one UE's retained history plus its anomaly state.
type ueSeries struct {
	key     ueKey
	series  series
	lastTMs float64
	elem    *list.Element // position in the store's LRU list

	// close and evict are allocated once at series creation so the
	// ingest hot path passes preexisting func values (no per-record
	// closure).
	close func(b Bin, binIdx int64)
	evict func(binIdx int64, b *Bin)

	anom anomalyState
}

// cellHistory is one monitored cell: its slot duration (for records
// that predate the t_ms field) and the cell-level aggregate series.
type cellHistory struct {
	id     uint16
	ttiMS  float64
	series series
	evict  func(binIdx int64, b *Bin)
}

// Store is the session-history store. All methods are safe for
// concurrent use; ingest takes a write lock, queries a read lock.
type Store struct {
	cfg   Config
	binMS float64

	mu      sync.RWMutex
	cells   map[uint16]*cellHistory
	ues     map[ueKey]*ueSeries
	lru     *list.List // front = most recently seen UE
	anoms   anomalyRing
	lastTMs float64 // newest record time seen (ms)
	lake    Lake    // optional spill target; nil = evicted bins are lost
}

// New creates a store with the given configuration.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	return &Store{
		cfg:   cfg,
		binMS: float64(cfg.BinWidth) / float64(time.Millisecond),
		cells: make(map[uint16]*cellHistory),
		ues:   make(map[ueKey]*ueSeries),
		lru:   list.New(),
		anoms: newAnomalyRing(cfg.AnomalyDepth),
	}
}

// AddCell registers a monitored cell. tti is the cell's slot duration,
// used to derive bin time for records without a t_ms stamp.
func (st *Store) AddCell(cellID uint16, tti time.Duration) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.cells[cellID]; dup {
		return fmt.Errorf("history: cell %d already registered", cellID)
	}
	c := &cellHistory{
		id:     cellID,
		ttiMS:  float64(tti) / float64(time.Millisecond),
		series: series{bins: make([]Bin, st.cfg.Depth)},
	}
	c.evict = func(binIdx int64, b *Bin) {
		if st.lake != nil {
			st.lake.SpillBin(c.id, 0, true, binIdx, b)
		}
	}
	st.cells[cellID] = c
	return nil
}

// SubscribeTo attaches the store to a bus as a lossless (Block policy)
// subscriber feeding Ingest for cellID. The returned subscription is
// drained in full when the bus closes. Kept: bench/'s deliver16
// workload attaches its store with it.
func (st *Store) SubscribeTo(b *bus.Bus, cellID uint16) (*bus.Subscription, error) {
	return b.Subscribe("history", bus.Block, bus.SinkFunc(func(recs []telemetry.Record) error {
		for _, r := range recs {
			st.Ingest(cellID, r)
		}
		return nil
	}))
}

// Ingest folds one record into the cell's and (unless the record is a
// common-search-space broadcast) the UE's current bin. The hot path is
// allocation-free for already-tracked UEs.
func (st *Store) Ingest(cellID uint16, rec telemetry.Record) {
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.cells[cellID]
	if c == nil {
		met.dropped.Inc()
		return
	}
	tms := rec.TMs
	if tms <= 0 {
		tms = float64(rec.SlotIdx) * c.ttiMS
	}
	if tms > st.lastTMs {
		st.lastTMs = tms
	}
	idx := int64(tms / st.binMS)
	met.ingested.Inc()

	if cb := c.series.advance(idx, nil, c.evict); cb != nil {
		cb.addRecord(rec)
	} else {
		met.late.Inc()
	}
	if rec.Common {
		return
	}
	k := ueKey{cellID, rec.RNTI}
	u := st.ues[k]
	if u == nil {
		u = st.addUE(k)
	}
	st.lru.MoveToFront(u.elem)
	u.lastTMs = tms
	if ub := u.series.advance(idx, u.close, u.evict); ub != nil {
		ub.addRecord(rec)
	} else {
		met.late.Inc()
	}
	if st.cfg.IdleHorizon > 0 {
		st.evictIdleLocked(tms)
	}
}

// IngestSpare folds one TTI's §5.4.1 spare-capacity split into the
// history: per-UE fair-share spare bits onto each tracked UE's bin, and
// the cell's used/total RE accounting onto the cell bin. Spare data
// never creates a UE series (a UE history starts at its first DCI).
func (st *Store) IngestSpare(cellID uint16, slotIdx int, sp *telemetry.SpareCapacity) {
	if sp == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.cells[cellID]
	if c == nil {
		met.dropped.Inc()
		return
	}
	tms := float64(slotIdx) * c.ttiMS
	st.lastTMs = max(st.lastTMs, tms)
	idx := int64(tms / st.binMS)
	if cb := c.series.advance(idx, nil, c.evict); cb != nil {
		cb.UsedREs += int64(sp.UsedREs)
		cb.TotalREs += int64(sp.TotalREs)
	}
	for i, su := range sp.UEs {
		u := st.ues[ueKey{cellID, su.RNTI}]
		if u == nil {
			continue
		}
		if ub := u.series.advance(idx, u.close, u.evict); ub != nil {
			ub.SpareBits += sp.Bits(i)
		}
	}
}

// addUE creates a UE series, evicting the least-recently-seen UE first
// if the store is at its cap.
func (st *Store) addUE(k ueKey) *ueSeries {
	if len(st.ues) >= st.cfg.MaxUEs {
		if back := st.lru.Back(); back != nil {
			st.evictLocked(back.Value.(*ueSeries))
		}
	}
	u := &ueSeries{key: k, series: series{bins: make([]Bin, st.cfg.Depth)}}
	u.close = func(b Bin, binIdx int64) { st.binClosed(u, b, binIdx) }
	u.evict = func(binIdx int64, b *Bin) {
		if st.lake != nil {
			st.lake.SpillBin(u.key.cell, u.key.rnti, false, binIdx, b)
		}
	}
	u.elem = st.lru.PushFront(u)
	st.ues[k] = u
	met.tracked.Set(int64(len(st.ues)))
	return u
}

// evictIdleLocked ages out UEs idle past the horizon, oldest first.
func (st *Store) evictIdleLocked(nowMs float64) {
	horizonMS := float64(st.cfg.IdleHorizon) / float64(time.Millisecond)
	for {
		back := st.lru.Back()
		if back == nil {
			return
		}
		u := back.Value.(*ueSeries)
		if nowMs-u.lastTMs <= horizonMS {
			return
		}
		st.evictLocked(u)
	}
}

func (st *Store) evictLocked(u *ueSeries) {
	// A whole-series eviction spills every retained bin: the UE may
	// come back under the same C-RNTI, and a later query must still see
	// the full session.
	if st.lake != nil {
		u.series.spillAll(u.evict)
	}
	st.lru.Remove(u.elem)
	delete(st.ues, u.key)
	met.evicted.Inc()
	met.tracked.Set(int64(len(st.ues)))
}

// TrackedUEs reports how many UE series the store currently holds.
func (st *Store) TrackedUEs() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.ues)
}

// LastMs returns the newest record time the store has seen, in ms.
func (st *Store) LastMs() float64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.lastTMs
}
