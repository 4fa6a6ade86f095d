package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/obs"
	"nrscope/internal/radio"
)

// DecodePool spreads per-cell slot decode across a shared set of
// workers — the paper's Fig. 4 worker pool, and the only slot executor
// besides calling ProcessSlot inline. It keeps each cell's ProcessSlot
// strictly serial (slot n+1's blind decode depends on state merged from
// slot n: MIB, SIB1, MSG4 one-shots) and gets its parallelism across
// cells: each registered cell owns a bounded capture ring, and every
// worker scans the cell list from its own offset, claiming whole cells
// with a CAS. A worker whose home cells are idle steals from any other
// cell with queued work, so a burst on one cell is absorbed by the
// whole pool.
//
// Submit blocks when the cell's ring is full (radio back-pressure: a
// bus.Ring under Block), keeping the steady state allocation-free: the
// rings are fixed at AddCell and captures are handed over by pointer.
// Results are delivered to the cell's handler on the worker goroutine,
// serialized per cell by the claim but concurrent across cells. A panic while
// decoding or handling a slot costs that slot only (see process).
type DecodePool struct {
	workers int
	queue   int // per-cell ring size, fixed at construction
	cells   []*poolCell
	byID    map[uint16]*poolCell

	started bool
	closed  atomic.Bool
	pending atomic.Int64 // submitted captures not yet handled

	wake chan struct{} // non-blocking doorbells, capacity = workers
	quit chan struct{} // closed by Close: workers drain and exit
	wg   sync.WaitGroup
}

// poolMaxClaim bounds how many slots a worker decodes per cell claim,
// so one deep queue cannot starve the other cells a worker serves.
const poolMaxClaim = 32

// poolCell is one registered cell: its scope, its result handler, its
// bounded capture ring, and the batch a claiming worker takes off it.
type poolCell struct {
	id      uint16
	scope   *Scope
	handler func(*SlotResult)

	ring  *bus.Ring[*radio.Capture]
	batch []*radio.Capture // used only under the claim

	// busy is the cell claim: exactly one worker decodes a cell at a
	// time, which is what keeps per-cell slot order strict while cells
	// proceed concurrently.
	busy atomic.Bool
}

// NewDecodePool creates a pool with the given worker count and
// per-cell queue depth. Register cells with AddCell, then Start.
func NewDecodePool(workers, queueDepth int) *DecodePool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 64
	}
	return &DecodePool{
		workers: workers,
		queue:   queueDepth,
		byID:    make(map[uint16]*poolCell),
		wake:    make(chan struct{}, workers),
		quit:    make(chan struct{}),
	}
}

// AddCell registers a cell's scope and result handler. The handler is
// invoked on a worker goroutine, serialized per cell; it may be nil
// when only the scope's state matters.
// Must be called before Start.
func (p *DecodePool) AddCell(id uint16, scope *Scope, handler func(*SlotResult)) error {
	if p.started {
		return errors.New("core: DecodePool.AddCell after Start")
	}
	if scope == nil {
		return fmt.Errorf("core: DecodePool.AddCell(%d) with nil scope", id)
	}
	if _, dup := p.byID[id]; dup {
		return fmt.Errorf("core: cell %d already registered", id)
	}
	c := &poolCell{
		id: id, scope: scope, handler: handler,
		ring:  bus.NewRing[*radio.Capture](p.queue, bus.Block, new(obs.Gauge)),
		batch: make([]*radio.Capture, 0, poolMaxClaim),
	}
	p.byID[id] = c
	p.cells = append(p.cells, c)
	return nil
}

// Start launches the workers. AddCell calls must precede it.
func (p *DecodePool) Start() error {
	if p.started {
		return errors.New("core: DecodePool already started")
	}
	if len(p.cells) == 0 {
		return errors.New("core: DecodePool has no cells")
	}
	p.started = true
	met.poolWorkers.Set(int64(p.workers))
	for i := 0; i < p.workers; i++ {
		p.wg.Add(1)
		go p.run(i)
	}
	return nil
}

// Submit enqueues one capture for its cell and reports whether it was
// accepted (a Submit after Close is dropped). It blocks while the
// cell's queue is full. Per-cell submissions must be in slot order and
// from a single goroutine, never concurrently with Close.
func (p *DecodePool) Submit(id uint16, cap *radio.Capture) bool {
	if p.closed.Load() {
		return false
	}
	c, ok := p.byID[id]
	if !ok {
		return false
	}
	if _, ok := c.ring.Push(cap); !ok {
		return false
	}
	p.pending.Add(1)
	met.poolSubmitted.Inc()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return true
}

// Flush blocks until every submitted capture has been decoded and its
// handler has returned. Must not race Close.
func (p *DecodePool) Flush() {
	for p.pending.Load() > 0 {
		time.Sleep(20 * time.Microsecond)
	}
}

// Close drains every queue, stops the workers, and releases blocked
// Submits. Idempotent; must not race a concurrent Submit.
func (p *DecodePool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.quit)
	p.wg.Wait()
	for _, c := range p.cells {
		c.ring.Close()
	}
	met.poolWorkers.Set(0)
}

// run is one worker: scan the cells from this worker's offset, claim
// and drain any with queued work, park on the doorbell when idle.
func (p *DecodePool) run(self int) {
	defer p.wg.Done()
	for {
		progressed := false
		for k := 0; k < len(p.cells); k++ {
			idx := (self + k) % len(p.cells)
			if p.drain(p.cells[idx], idx%p.workers != self) {
				progressed = true
			}
		}
		if progressed {
			continue
		}
		select {
		case <-p.wake:
		case <-p.quit:
			// Closing: sweep until every queue is empty. Other workers
			// do the same; the claims keep per-cell order intact.
			for p.pending.Load() > 0 {
				for i, c := range p.cells {
					p.drain(c, i%p.workers != self)
				}
			}
			return
		}
	}
}

// drain claims a cell and decodes up to poolMaxClaim queued slots in
// order, delivering each result to the cell's handler. Returns whether
// any slot was taken off the queue.
func (p *DecodePool) drain(c *poolCell, stolen bool) bool {
	if !c.busy.CompareAndSwap(false, true) {
		return false
	}
	defer c.busy.Store(false)
	c.batch, _ = c.ring.Take(c.batch[:0], poolMaxClaim)
	for _, cap := range c.batch {
		p.process(c, cap)
	}
	worked := len(c.batch) > 0
	if stolen && worked {
		met.poolSteals.Inc()
	}
	clear(c.batch) // release the captures
	return worked
}

// process decodes one slot and hands the result to the cell's handler.
// A panic in either is contained to that slot: it is counted and the
// slot dropped, but pending still falls and drain's claim is released
// on its way out, so Flush and Close cannot hang and the cell's later
// slots keep decoding in order.
func (p *DecodePool) process(c *poolCell, cap *radio.Capture) {
	defer func() {
		if recover() != nil {
			met.poolPanics.Inc()
		} else {
			met.poolDecoded.Inc()
		}
		p.pending.Add(-1)
	}()
	res := c.scope.ProcessSlot(cap)
	if c.handler != nil {
		c.handler(res)
	}
}
