// Package bus is the telemetry distribution layer between the scope
// engine and its consumers: an in-process pub/sub fanout that producers
// (the shard supervisor's workers, an example's own loop) publish
// telemetry.Records into, and sinks (JSONL log, TCP stream, SSE feed,
// custom) consume from — the paper's §6 always-on service posture,
// where per-TTI capacity telemetry must reach application servers
// faster than half an RTT without a slow consumer stalling the decode
// hot path.
//
// Each subscriber owns a bounded ring queue and a backpressure policy:
// DropOldest for live feedback consumers (freshness over completeness)
// and Block for lossless log/eval consumers (completeness over
// publisher latency). A managed runner per subscriber forms batches —
// at most maxBatch records, lingering up to maxDelay for more (64 / 5 ms
// by default; the live TCP and SSE subscribers do not linger) — and
// delivers them to the Sink with retry (exponential backoff + jitter)
// and failure quarantine, so a flapping sink degrades to counted drops
// instead of stalling its siblings. A sink that panics in WriteBatch
// loses that batch as a failed delivery, not retried, and the runner
// goes on with the next one. Close drains: every record already
// queued to a Block subscriber is delivered before Close returns.
package bus

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"nrscope/internal/telemetry"
)

// Policy selects a subscriber's behaviour when its queue is full.
type Policy int

const (
	// DropOldest evicts the oldest queued record to admit the new one —
	// live consumers prefer fresh telemetry over complete telemetry.
	DropOldest Policy = iota
	// Block makes Publish wait for queue space — lossless consumers
	// (logs, eval) prefer complete telemetry over publisher latency.
	Block
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == Block {
		return "block"
	}
	return "drop-oldest"
}

// ErrClosed is returned by Publish and Subscribe after Close.
var ErrClosed = errors.New("bus: closed")

// ErrUnencodable is returned by Publish for a record whose code_rate or
// t_ms is NaN or infinite: JSON has no form for it, so no line sink
// could write it.
var ErrUnencodable = errors.New("bus: record has a non-finite code_rate or t_ms")

// Sink consumes delivered record batches. WriteBatch is called from the
// subscription's runner goroutine only (no concurrent calls for one
// subscription); an error triggers the runner's retry/quarantine
// machinery, and a panic fails the batch without a retry. Close is
// called exactly once, after the final batch.
type Sink interface {
	WriteBatch(recs []telemetry.Record) error
	Close() error
}

// SinkFunc adapts a function to the Sink interface (Close is a no-op).
// Kept: history.Store.SubscribeTo and bench/'s probes build sinks with it.
type SinkFunc func(recs []telemetry.Record) error

// WriteBatch implements Sink.
func (f SinkFunc) WriteBatch(recs []telemetry.Record) error { return f(recs) }

// Close implements Sink.
func (f SinkFunc) Close() error { return nil }

// subConfig is a subscription's tuning, set via SubOption.
type subConfig struct {
	queueSize       int
	maxBatch        int
	maxDelay        time.Duration
	maxRetries      int
	backoffBase     time.Duration
	backoffCap      time.Duration
	quarantineAfter int
	cooldown        time.Duration
	failFast        bool
	onClose         func()
}

func defaultSubConfig() subConfig {
	return subConfig{
		queueSize:       1024,
		maxBatch:        64,
		maxDelay:        5 * time.Millisecond,
		maxRetries:      3,
		backoffBase:     5 * time.Millisecond,
		backoffCap:      250 * time.Millisecond,
		quarantineAfter: 3,
		cooldown:        2 * time.Second,
	}
}

// SubOption tunes one subscription.
type SubOption func(*subConfig)

// WithQueueSize bounds the subscriber's ring queue (default 1024).
func WithQueueSize(n int) SubOption {
	return func(c *subConfig) {
		if n > 0 {
			c.queueSize = n
		}
	}
}

// WithBatch sets the flush rule: a batch is delivered when it reaches
// maxBatch records or maxDelay after its first record, whichever comes
// first (default 64 records / 5 ms). maxDelay 0 means no linger: the
// runner delivers what is queued as soon as it is free; < 0 keeps 5 ms.
func WithBatch(maxBatch int, maxDelay time.Duration) SubOption {
	return func(c *subConfig) {
		if maxBatch > 0 {
			c.maxBatch = maxBatch
		}
		if maxDelay >= 0 {
			c.maxDelay = maxDelay
		}
	}
}

// withRetry sets the per-batch delivery retry budget and the
// exponential-backoff base and cap (default 3 retries, 5 ms..250 ms).
func withRetry(maxRetries int, base, cap time.Duration) SubOption {
	return func(c *subConfig) {
		if maxRetries >= 0 {
			c.maxRetries = maxRetries
		}
		if base > 0 {
			c.backoffBase = base
		}
		if cap > 0 {
			c.backoffCap = cap
		}
	}
}

// withQuarantine sets how many consecutive failed deliveries quarantine
// the sink and for how long; while quarantined, batches become counted
// drops instead of delivery attempts (default 3 failures, 2 s).
func withQuarantine(after int, cooldown time.Duration) SubOption {
	return func(c *subConfig) {
		if after > 0 {
			c.quarantineAfter = after
		}
		if cooldown > 0 {
			c.cooldown = cooldown
		}
	}
}

// withFailFast makes the first failed delivery terminal: the
// subscription drops its queue, detaches from the bus, and closes its
// sink — the right policy for per-connection sinks (a broken TCP peer
// cannot recover; retrying only delays its siblings' drain). Implies a
// zero retry budget.
func withFailFast() SubOption {
	return func(c *subConfig) { c.failFast = true }
}

// withOnClose registers a callback invoked once, after the
// subscription's runner exits (drain complete or fail-fast abort).
func withOnClose(fn func()) SubOption {
	return func(c *subConfig) { c.onClose = fn }
}

// Bus fans published records out to its subscriptions.
type Bus struct {
	mu     sync.Mutex
	subs   []*Subscription // copy-on-write: Publish reads the header
	closed bool
}

// New creates an empty bus.
func New() *Bus { return &Bus{} }

// Subscribe registers a sink under a name: the name is the sink label
// of the sink's nrscope_bus_sink_*{sink="<name>"} series, any string,
// and subscriptions sharing a name share those instruments. The
// subscription's runner starts immediately.
func (b *Bus) Subscribe(name string, policy Policy, sink Sink, opts ...SubOption) (*Subscription, error) {
	cfg := defaultSubConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.failFast {
		cfg.maxRetries = 0
	}
	s := &Subscription{
		name: name,
		sink: sink,
		cfg:  cfg,
		done: make(chan struct{}),
		met:  metricsFor(name),
		bus:  b,
	}
	s.q = NewRing[telemetry.Record](cfg.queueSize, policy, s.met.depth)
	h := fnv.New64a()
	h.Write([]byte(name))
	s.rng = rand.New(rand.NewSource(int64(h.Sum64()) ^ time.Now().UnixNano()))

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	next := make([]*Subscription, len(b.subs)+1)
	copy(next, b.subs)
	next[len(b.subs)] = s
	b.subs = next
	b.mu.Unlock()

	s.met.capacity.Set(int64(cfg.queueSize))
	met.subscribers.Inc()
	go s.run()
	return s, nil
}

// Publish fans one record out to every subscription, honouring each
// subscription's backpressure policy. Safe for concurrent use. After
// Close it returns ErrClosed instead of panicking. A record with a
// non-finite code_rate or t_ms is refused with ErrUnencodable before
// any subscription sees it.
func (b *Bus) Publish(rec telemetry.Record) error {
	if !rec.Encodable() {
		met.publishRejected.Inc()
		return ErrUnencodable
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		met.publishRejected.Inc()
		return ErrClosed
	}
	subs := b.subs // copy-on-write slice: safe to read unlocked
	b.mu.Unlock()
	met.published.Inc()
	for _, s := range subs {
		s.push(rec)
	}
	return nil
}

// Subscribers reports the number of live subscriptions.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// remove detaches one subscription (no-op if already detached).
func (b *Bus) remove(s *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, cur := range b.subs {
		if cur == s {
			next := make([]*Subscription, 0, len(b.subs)-1)
			next = append(next, b.subs[:i]...)
			next = append(next, b.subs[i+1:]...)
			b.subs = next
			return
		}
	}
}

// Close stops the bus: Publish starts returning ErrClosed, every
// subscription drains its queue (Block subscribers lose zero records),
// sinks are closed, and Close returns once all runners have exited.
// Idempotent.
func (b *Bus) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	subs := b.subs
	b.subs = nil
	b.mu.Unlock()

	for _, s := range subs {
		s.beginClose()
	}
	var errs []error
	for _, s := range subs {
		<-s.done
		if err := s.closeErr; err != nil {
			errs = append(errs, fmt.Errorf("bus: sink %s: %w", s.name, err))
		}
	}
	return errors.Join(errs...)
}

// Subscription is one consumer's end of the bus: a bounded ring queue
// plus the runner goroutine delivering batches to the Sink.
type Subscription struct {
	name string
	sink Sink
	cfg  subConfig
	bus  *Bus
	met  *sinkMetrics
	q    *Ring[telemetry.Record]
	done chan struct{} // closed when the runner exits

	// Runner-local state (no locking: only the runner touches these).
	rng             *rand.Rand
	consecutiveFail int
	quarantineUntil time.Time
	closeErr        error

	closeOnce sync.Once
}

// Done is closed when the subscription's runner has exited (drain
// complete, fail-fast abort, or Close).
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Close detaches the subscription from the bus, drains its queue per
// its policy, closes the sink, and waits for the runner to exit.
// Idempotent; safe to call concurrently with Bus.Close.
func (s *Subscription) Close() {
	s.bus.remove(s)
	s.beginClose()
	<-s.done
}

// beginClose marks the queue closed and wakes everything; the runner
// drains what is queued and exits.
func (s *Subscription) beginClose() {
	s.closeOnce.Do(func() {
		s.q.Close()
		met.subscribers.Dec()
	})
}

// push enqueues one record per the backpressure policy. Returns false
// if the subscription is closing (the record is counted as rejected).
func (s *Subscription) push(rec telemetry.Record) bool {
	evicted, ok := s.q.Push(rec)
	if evicted > 0 {
		s.met.dropped.Add(int64(evicted))
	}
	if !ok {
		s.met.rejected.Inc()
	}
	return ok
}

// collect blocks until at least one record is queued, then gathers a
// batch: full at maxBatch, flushed maxDelay after the first record, or,
// with a zero maxDelay, whatever the first take found. Returns an empty
// batch only when the subscription is closed and the queue fully
// drained.
func (s *Subscription) collect(batch []telemetry.Record) []telemetry.Record {
	batch, closing := s.q.Take(batch, s.cfg.maxBatch)
	for len(batch) == 0 {
		if closing {
			return batch
		}
		<-s.q.Ready()
		batch, closing = s.q.Take(batch, s.cfg.maxBatch)
	}
	if len(batch) >= s.cfg.maxBatch || closing || s.cfg.maxDelay == 0 {
		return batch
	}
	timer := time.NewTimer(s.cfg.maxDelay)
	defer timer.Stop()
	for {
		select {
		case <-s.q.Ready():
			batch, closing = s.q.Take(batch, s.cfg.maxBatch)
			if len(batch) >= s.cfg.maxBatch || closing {
				return batch
			}
		case <-timer.C:
			return batch
		}
	}
}

// run is the managed sink runner: batch, deliver, retry, quarantine.
func (s *Subscription) run() {
	defer func() {
		s.closeErr = s.sink.Close()
		s.met.depth.Set(0)
		if s.cfg.onClose != nil {
			s.cfg.onClose()
		}
		close(s.done)
	}()
	batch := make([]telemetry.Record, 0, s.cfg.maxBatch)
	for {
		batch = s.collect(batch[:0])
		if len(batch) == 0 {
			return // closed and drained
		}
		if !s.deliver(batch) {
			// Fail-fast abort: drop whatever is still queued, detach.
			s.abort()
			return
		}
	}
}

// deliver writes one batch with retry + backoff + jitter. Returns false
// only on a fail-fast terminal failure.
func (s *Subscription) deliver(batch []telemetry.Record) bool {
	if !s.quarantineUntil.IsZero() {
		if time.Now().Before(s.quarantineUntil) {
			// Quarantined: the flapping sink degrades to counted drops
			// instead of stalling its siblings' share of publisher time.
			s.met.dropped.Add(int64(len(batch)))
			return true
		}
		s.quarantineUntil = time.Time{} // cooldown over: probe again
	}
	start := time.Now()
	var (
		err      error
		panicked bool
	)
	for attempt := 0; ; attempt++ {
		panicked, err = s.write(batch)
		if err == nil || panicked || attempt >= s.cfg.maxRetries {
			break
		}
		s.met.retried.Inc()
		time.Sleep(s.backoff(attempt))
	}
	if err != nil {
		s.met.failures.Inc()
		s.met.dropped.Add(int64(len(batch)))
		if s.cfg.failFast {
			return false
		}
		s.consecutiveFail++
		if s.consecutiveFail >= s.cfg.quarantineAfter {
			s.consecutiveFail = 0
			s.quarantineUntil = time.Now().Add(s.cfg.cooldown)
			s.met.quarantines.Inc()
		}
		return true
	}
	s.consecutiveFail = 0
	s.met.delivered.Add(int64(len(batch)))
	s.met.flush.Observe(time.Since(start).Seconds())
	return true
}

// write hands one batch to the sink. A panic in WriteBatch comes back
// as an error with panicked set: a failed delivery that is not retried.
func (s *Subscription) write(batch []telemetry.Record) (panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			panicked, err = true, fmt.Errorf("bus: sink %s panicked: %v", s.name, r)
		}
	}()
	return false, s.sink.WriteBatch(batch)
}

// backoff returns base*2^attempt capped, with ±50% jitter so flapping
// sinks across subscriptions do not retry in lockstep.
func (s *Subscription) backoff(attempt int) time.Duration {
	d := s.cfg.backoffBase << uint(attempt)
	if d > s.cfg.backoffCap || d <= 0 {
		d = s.cfg.backoffCap
	}
	half := int64(d) / 2
	return time.Duration(half + s.rng.Int63n(half+1))
}

// abort is the fail-fast exit: mark closed, count the queue as dropped,
// release Block publishers, and detach from the bus.
func (s *Subscription) abort() {
	s.bus.remove(s)
	s.closeOnce.Do(func() {
		met.subscribers.Dec()
	})
	aborted := s.q.Discard()
	s.met.dropped.Add(int64(aborted))
}

// Dropped reports the subscription's drop counter (DropOldest
// evictions, quarantine drops, and failed deliveries).
func (s *Subscription) Dropped() int64 { return s.met.dropped.Value() }

// SubStats is one sink's delivery accounting, as reported by
// Subscription.Stats — the per-sink end-of-run summary's data shape.
type SubStats struct {
	Name        string
	Delivered   int64 // records the sink accepted
	Dropped     int64 // evictions + quarantine drops + failed deliveries
	Rejected    int64 // pushes refused by a closing queue
	Retries     int64 // delivery retry attempts
	Failures    int64 // batches failed after exhausting retries
	Quarantines int64 // times the sink entered failure quarantine
}

// Stats snapshots the subscription's delivery counters. Subscriptions
// sharing a name share instruments, so the counters aggregate across
// same-named siblings (e.g. every TCP connection under "tcp").
func (s *Subscription) Stats() SubStats {
	return SubStats{
		Name:        s.name,
		Delivered:   s.met.delivered.Value(),
		Dropped:     s.met.dropped.Value(),
		Rejected:    s.met.rejected.Value(),
		Retries:     s.met.retried.Value(),
		Failures:    s.met.failures.Value(),
		Quarantines: s.met.quarantines.Value(),
	}
}
