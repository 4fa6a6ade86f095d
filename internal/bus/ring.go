package bus

import (
	"sync"

	"nrscope/internal/obs"
)

// Ring is the bounded FIFO queue between many producers and one
// consumer goroutine: a bus subscription's queue, and a shard's ingest
// queue. When it is full, Push follows the ring's Policy: DropOldest
// evicts the oldest item, Block waits for the consumer to take.
type Ring[T any] struct {
	policy Policy
	depth  *obs.Gauge // queued items, set under mu

	mu      sync.Mutex
	notFull *sync.Cond // Block-policy producers wait here
	buf     []T
	head, n int
	closed  bool

	ready chan struct{} // consumer wake signal (buffered 1)
}

// NewRing makes a ring of size items whose depth is kept in depth.
func NewRing[T any](size int, policy Policy, depth *obs.Gauge) *Ring[T] {
	r := &Ring[T]{policy: policy, depth: depth, buf: make([]T, size), ready: make(chan struct{}, 1)}
	r.notFull = sync.NewCond(&r.mu)
	return r
}

// Push enqueues v under the ring's policy. evicted is the number of
// items a DropOldest ring dropped to make room; ok is false, and v is
// not queued, once the ring is closed.
func (r *Ring[T]) Push(v T) (evicted int, ok bool) {
	r.mu.Lock()
	for r.n == len(r.buf) && !r.closed {
		if r.policy == DropOldest {
			var zero T
			r.buf[r.head] = zero
			r.head = (r.head + 1) % len(r.buf)
			r.n--
			evicted++
			break
		}
		r.notFull.Wait()
	}
	if r.closed {
		r.mu.Unlock()
		return evicted, false
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	r.depth.Set(int64(r.n))
	r.mu.Unlock()
	r.signal()
	return evicted, true
}

func (r *Ring[T]) signal() {
	select {
	case r.ready <- struct{}{}:
	default:
	}
}

// Ready is signalled after each Push and on Close: the consumer waits
// on it when Take finds the ring empty.
func (r *Ring[T]) Ready() <-chan struct{} { return r.ready }

// Take moves queued items into batch until it holds max, without
// waiting, and reports whether the ring is closed.
func (r *Ring[T]) Take(batch []T, max int) ([]T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 || len(batch) >= max {
		return batch, r.closed
	}
	var zero T
	for r.n > 0 && len(batch) < max {
		batch = append(batch, r.buf[r.head])
		r.buf[r.head] = zero
		r.head = (r.head + 1) % len(r.buf)
		r.n--
	}
	r.depth.Set(int64(r.n))
	r.notFull.Broadcast()
	return batch, r.closed
}

// Close refuses further pushes and wakes everyone: blocked producers
// give up, and the consumer drains what is queued. Idempotent.
func (r *Ring[T]) Close() {
	r.mu.Lock()
	r.closed = true
	r.notFull.Broadcast()
	r.mu.Unlock()
	r.signal()
}

// Discard closes the ring and empties it, returning how many queued
// items it dropped.
func (r *Ring[T]) Discard() int {
	r.mu.Lock()
	n := r.n
	clear(r.buf)
	r.head, r.n, r.closed = 0, 0, true
	r.depth.Set(0)
	r.notFull.Broadcast()
	r.mu.Unlock()
	r.signal()
	return n
}

// Len reports how many items are queued.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}
