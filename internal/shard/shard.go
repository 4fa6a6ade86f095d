// Package shard is the metro-scale cell supervisor: one process
// monitoring hundreds of cells partitions them across N shards, each
// shard owning its own ingest worker, its own bounded queue, its own
// history.Store partition and (optionally) its own fusion aggregator —
// the always-on-watcher posture OWL argued control-channel measurement
// needs, grown from NR-Scope's one-cell pipeline to a deployment.
//
// Failure containment is the point of the partitioning, and it follows
// one rule, the decode pool's: a fold that panics costs exactly its
// record, counted as dropped (and in restarts_total), and the worker
// goes on with the next record into the same partition, so the
// partition's retained rings and its peer shards are untouched. The
// ingest queue is a bus.Ring under the configured policy: DropOldest
// (the default) evicts as a counted drop, and Block back-pressures the
// producer, so a worker held up by a hung Block sink downstream holds
// up Ingest too, exactly as an unsharded bus does. A shard whose queue
// is non-empty while one batch has been in flight for StallTimeout is
// reported stalled by Health; nothing is restarted.
//
// Cross-shard queries go through the rollup layer (rollup.go): fused
// TopK over every partition, time-ordered anomalies, merged deployment
// snapshots, per-shard health with queue depth/drops/restarts, and
// merged handover / carrier-aggregation candidates when per-shard
// fusion is on. The supervisor is the one HTTP server of stored
// telemetry (http.go): /history/* per-cell routes go to the partition
// that owns the cell, and /history/topk, /history/anomalies and
// /shards/* to the rollup layer. Per-shard backpressure and health are
// exported via internal/obs under nrscope_shard_* (metrics.go).
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/fusion"
	"nrscope/internal/history"
	"nrscope/internal/phy"
	"nrscope/internal/telemetry"
)

// Policy is a shard queue's backpressure policy (the bus policies,
// reused: the queue is a bus.Ring).
type Policy = bus.Policy

// Backpressure policies.
const (
	DropOldest = bus.DropOldest
	Block      = bus.Block
)

// ErrClosed is returned by Ingest and IngestSpare after Close.
var ErrClosed = errors.New("shard: supervisor closed")

// maxBatch is how many queued records a shard worker takes per pass.
const maxBatch = 256

// Config tunes a Supervisor. The zero value is usable: every field
// defaults sensibly in New.
type Config struct {
	// Shards is the number of cell partitions (default 1).
	Shards int
	// QueueSize bounds each shard's ingest ring queue, in records
	// (default 8192).
	QueueSize int
	// Policy is the backpressure policy of the shard queues (default
	// DropOldest — live deployments prefer fresh telemetry; use Block
	// for lossless benchmark or eval ingest).
	Policy Policy
	// History configures each shard's history.Store partition. MaxUEs
	// is per partition.
	History history.Config
	// Fusion gives each shard its own fusion.Aggregator folding into
	// the shard's partition store: handover and carrier-aggregation
	// candidates are detected within a shard's cells and merged by the
	// rollup layer (cross-shard pairs are not matched — partitioning
	// trades that for isolation).
	Fusion bool
	// Bus, if set, receives every applied record: each shard worker is
	// its own publisher goroutine into the (thread-safe) bus, so -sink
	// fan-out composes with sharding.
	Bus *bus.Bus
	// StallTimeout is how long a worker may spend on one batch while
	// records wait behind it before Health reports the shard stalled
	// (default 2s; negative disables the flag).
	StallTimeout time.Duration
	// ApplyHook, if set, is invoked for every record just before it is
	// applied, outside the shard's apply lock. It exists for fault
	// injection in tests (a panicking or blocking hook exercises the
	// recover and stall paths); leave nil in production.
	ApplyHook func(shard int, cell uint16, rec *telemetry.Record)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 8192
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 2 * time.Second
	}
	return c
}

// item is one queued unit of shard work: a telemetry record, or a
// spare-capacity split (spare != nil).
type item struct {
	cell    uint16
	slotIdx int
	rec     telemetry.Record
	spare   *telemetry.SpareCapacity
}

// Supervisor partitions cells across shards and runs one worker per
// shard. AddCell calls must precede Start; Ingest routes to the owning
// shard through an immutable map afterwards, so the hot path takes no
// supervisor-level lock.
type Supervisor struct {
	cfg    Config
	shards []*shardState
	route  map[uint16]*shardState

	started bool
	closed  atomic.Bool
}

// New creates a supervisor with cfg.Shards empty shards. Register cells
// with AddCell, then call Start.
func New(cfg Config) *Supervisor {
	cfg = cfg.withDefaults()
	s := &Supervisor{cfg: cfg, route: make(map[uint16]*shardState)}
	for i := 0; i < cfg.Shards; i++ {
		st := history.New(cfg.History)
		sh := &shardState{
			sup:   s,
			idx:   i,
			store: st,
			met:   metricsFor(i),
			done:  make(chan struct{}),
		}
		sh.q = bus.NewRing[item](cfg.QueueSize, cfg.Policy, sh.met.depth)
		if cfg.Fusion {
			sh.agg = fusion.NewWithStore(st)
			if cfg.History.IdleHorizon > 0 {
				sh.agg.IdleHorizon = cfg.History.IdleHorizon
			}
		}
		sh.met.capacity.Set(int64(cfg.QueueSize))
		s.shards = append(s.shards, sh)
	}
	met.shards.Set(int64(cfg.Shards))
	return s
}

// Shards reports the shard count.
func (s *Supervisor) Shards() int { return len(s.shards) }

// AttachLakes gives every shard's history partition its own spill
// target (history bins evicted from a partition's RAM rings land in
// that shard's lake, and the partition's queries — and therefore the
// rollup fan-in — answer across RAM + disk transparently). The opener
// is called once per shard index so the caller controls the on-disk
// layout (typically one lake directory per shard). Must be called
// after New and before Start.
func (s *Supervisor) AttachLakes(open func(shard int) (history.Lake, error)) error {
	if s.started {
		return errors.New("shard: AttachLakes after Start")
	}
	for i, sh := range s.shards {
		l, err := open(i)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		sh.store.AttachLake(l)
	}
	return nil
}

// Store returns shard i's history partition (for tests and partition-
// local queries; cross-shard queries go through the rollup layer).
func (s *Supervisor) Store(i int) *history.Store { return s.shards[i].store }

// Partition reports which shard owns a cell.
func (s *Supervisor) Partition(cellID uint16) (int, bool) {
	sh, ok := s.route[cellID]
	if !ok {
		return 0, false
	}
	return sh.idx, true
}

// AddCell registers a cell with the supervisor, assigning it
// round-robin to the shard with the fewest cells (registration order is
// the deterministic tiebreak). Must be called before Start.
func (s *Supervisor) AddCell(cellID uint16, mu phy.Numerology) (int, error) {
	if s.started {
		return 0, errors.New("shard: AddCell after Start")
	}
	if !mu.Valid() {
		return 0, fmt.Errorf("shard: invalid numerology for cell %d", cellID)
	}
	if _, dup := s.route[cellID]; dup {
		return 0, fmt.Errorf("shard: cell %d already registered", cellID)
	}
	sh := s.shards[0]
	for _, cand := range s.shards[1:] {
		if cand.cells < sh.cells {
			sh = cand
		}
	}
	if sh.agg != nil {
		if err := sh.agg.AddCell(cellID, mu); err != nil {
			return 0, err
		}
	} else if err := sh.store.AddCell(cellID, mu.SlotDuration()); err != nil {
		return 0, err
	}
	sh.cells++
	sh.cellIDs = append(sh.cellIDs, cellID)
	s.route[cellID] = sh
	met.cells.Set(int64(len(s.route)))
	return sh.idx, nil
}

// Start launches one worker per shard.
func (s *Supervisor) Start() error {
	if s.started {
		return errors.New("shard: already started")
	}
	s.started = true
	for _, sh := range s.shards {
		go sh.run()
	}
	return nil
}

// Ingest routes one record to the shard owning its cell. Safe for
// concurrent use. Under DropOldest a full queue evicts its oldest record
// as a counted drop; under Block it waits for space.
func (s *Supervisor) Ingest(cellID uint16, rec telemetry.Record) error {
	return s.enqueue(item{cell: cellID, rec: rec})
}

// IngestSpare routes one TTI's spare-capacity split to the shard owning
// the cell.
func (s *Supervisor) IngestSpare(cellID uint16, slotIdx int, sp *telemetry.SpareCapacity) error {
	if sp == nil {
		return nil
	}
	return s.enqueue(item{cell: cellID, slotIdx: slotIdx, spare: sp})
}

func (s *Supervisor) enqueue(it item) error {
	if s.closed.Load() {
		return ErrClosed
	}
	sh, ok := s.route[it.cell]
	if !ok {
		return fmt.Errorf("shard: unknown cell %d", it.cell)
	}
	evicted, ok := sh.q.Push(it)
	if evicted > 0 {
		sh.drop(evicted)
	}
	if !ok {
		sh.rejected.Add(1)
		sh.met.rejected.Inc()
		return nil
	}
	sh.ingested.Add(1)
	sh.met.ingested.Inc()
	return nil
}

// Flush blocks until every shard's queue has been fully applied (or
// counted dropped) — the barrier benchmarks and tests use between an
// ingest burst and a query. Must not be called after Close.
func (s *Supervisor) Flush() {
	for _, sh := range s.shards {
		for sh.q.Len() > 0 || sh.ingested.Load() != sh.applied.Load()+sh.dropped.Load() {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// Close stops the supervisor: Ingest starts returning ErrClosed, every
// worker drains its queue in full, and shard state (store partitions,
// aggregators) remains readable for end-of-run rollups. Idempotent.
func (s *Supervisor) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, sh := range s.shards {
		sh.q.Close()
	}
	for _, sh := range s.shards {
		if s.started {
			<-sh.done
		} else {
			sh.drop(sh.q.Discard())
		}
	}
	return nil
}

// shardState is one shard: its bounded ingest ring, its history
// partition and optional fusion aggregator, and its health accounting.
type shardState struct {
	sup   *Supervisor
	idx   int
	store *history.Store
	agg   *fusion.Aggregator
	met   *shardMetrics
	q     *bus.Ring[item]
	done  chan struct{} // closed when the worker exits

	cells   int
	cellIDs []uint16

	// applyMu serializes the worker's aggregator folds with the rollup
	// queries that read the (unlocked) fusion aggregator.
	applyMu sync.Mutex

	// busySince is the UnixNano at which the worker took the batch it
	// is applying, 0 between batches.
	busySince atomic.Int64
	tracked   atomic.Int64 // the partition's tracked UEs after the last batch

	ingested atomic.Int64 // records accepted into the queue
	applied  atomic.Int64 // records folded into the partition
	dropped  atomic.Int64 // queue evictions + panicked folds
	rejected atomic.Int64 // pushes refused by a closed queue
	restarts atomic.Int64 // panicked folds recovered
}

// drop accounts n dropped records.
func (sh *shardState) drop(n int) {
	sh.dropped.Add(int64(n))
	sh.met.dropped.Add(int64(n))
}

// run is the shard's ingest worker: take a batch, apply it to the
// partition, publish, repeat, until the queue is closed and drained.
func (sh *shardState) run() {
	defer close(sh.done)
	batch := make([]item, 0, maxBatch)
	for {
		var closed bool
		batch, closed = sh.q.Take(batch[:0], maxBatch)
		if len(batch) == 0 {
			if closed {
				return
			}
			<-sh.q.Ready()
			continue
		}
		sh.busySince.Store(time.Now().UnixNano())
		lost := 0
		for i := 0; i < len(batch); {
			n, ok := sh.applyFrom(batch[i:])
			i += n
			if !ok {
				lost++
			}
		}
		sh.busySince.Store(0)
		sh.applied.Add(int64(len(batch) - lost))
		sh.met.applied.Add(int64(len(batch) - lost))
		tracked := int64(sh.store.TrackedUEs())
		sh.tracked.Store(tracked)
		sh.met.ues.Set(tracked)
		var ues int64
		for _, peer := range sh.sup.shards {
			ues += peer.tracked.Load()
		}
		met.ues.Set(ues)
	}
}

// applyFrom applies batch in order and returns how many records it got
// through. If one panics it stops there: the panicking record is
// counted dropped and included in n, and ok is false.
func (sh *shardState) applyFrom(batch []item) (n int, ok bool) {
	defer func() {
		if recover() != nil {
			n, ok = n+1, false
			sh.drop(1)
			sh.restarts.Add(1)
			sh.met.restarts.Inc()
		}
	}()
	for ; n < len(batch); n++ {
		sh.apply(&batch[n])
	}
	return n, true
}

// apply folds one item into the partition and publishes a record to
// the bus.
func (sh *shardState) apply(it *item) {
	if it.spare != nil {
		sh.store.IngestSpare(it.cell, it.slotIdx, it.spare)
		return
	}
	if hook := sh.sup.cfg.ApplyHook; hook != nil {
		hook(sh.idx, it.cell, &it.rec)
	}
	sh.fold(it)
	if b := sh.sup.cfg.Bus; b != nil {
		_ = b.Publish(it.rec)
	}
}

// fold folds one record into the partition: through the aggregator,
// which folds into the partition store itself, when fusion is on.
func (sh *shardState) fold(it *item) {
	if sh.agg == nil {
		sh.store.Ingest(it.cell, it.rec)
		return
	}
	sh.applyMu.Lock()
	defer sh.applyMu.Unlock()
	_ = sh.agg.Ingest(it.cell, it.rec)
}
