package bus

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nrscope/internal/obs"
	"nrscope/internal/telemetry"
)

func rec(slot int) telemetry.Record {
	return telemetry.Record{SlotIdx: slot, RNTI: 0x4601, Downlink: true, TBS: 1000 + slot}
}

// collectSink captures delivered records and can be made to block or
// fail on demand.
type collectSink struct {
	mu      sync.Mutex
	recs    []telemetry.Record
	sizes   []int // delivered batch sizes, in order
	calls   atomic.Int64
	gate    chan struct{} // non-nil: WriteBatch blocks until a receive
	failing atomic.Bool   // WriteBatch errors while set
	panicAt int64         // non-zero: the WriteBatch call that panics
	closed  atomic.Bool
}

func (c *collectSink) WriteBatch(recs []telemetry.Record) error {
	if c.calls.Add(1) == c.panicAt {
		panic("injected sink fault")
	}
	if c.gate != nil {
		<-c.gate
	}
	if c.failing.Load() {
		return errors.New("sink down")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, recs...)
	c.sizes = append(c.sizes, len(recs))
	return nil
}

func (c *collectSink) batchSizes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.sizes...)
}

func (c *collectSink) Close() error {
	c.closed.Store(true)
	return nil
}

func (c *collectSink) records() []telemetry.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]telemetry.Record, len(c.recs))
	copy(out, c.recs)
	return out
}

func TestPublishAfterCloseReturnsError(t *testing.T) {
	b := New()
	sink := &collectSink{}
	if _, err := b.Subscribe("edge_close", Block, sink); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(rec(0)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Must not panic, must report closure.
	if err := b.Publish(rec(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after Close = %v, want ErrClosed", err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	if _, err := b.Subscribe("late", Block, &collectSink{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Subscribe after Close = %v, want ErrClosed", err)
	}
	if !sink.closed.Load() {
		t.Error("sink not closed on bus Close")
	}
}

// TestDropOldestDropsExactlyOldest pins eviction order and accounting:
// with the runner wedged on the first record and a queue of 4, records
// evicted are exactly the oldest, and the drop counter matches.
func TestDropOldestDropsExactlyOldest(t *testing.T) {
	b := New()
	sink := &collectSink{gate: make(chan struct{})}
	sub, err := b.Subscribe("edge_dropoldest", DropOldest, sink,
		WithQueueSize(4), WithBatch(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Instruments are shared by sink name across -count=N runs: assert
	// on deltas from this run's baseline, not absolutes.
	dropsBase := sub.Dropped()
	// First record: wait until the runner has taken it out of the queue
	// (it is now blocked inside WriteBatch).
	if err := b.Publish(rec(0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sink.calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sink.calls.Load() == 0 {
		t.Fatal("runner never picked up the first record")
	}
	// Fill the queue (1..4), then overflow with 5..7: the three oldest
	// queued records (1, 2, 3) must be evicted.
	for i := 1; i <= 7; i++ {
		if err := b.Publish(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	dropsBefore := sub.Dropped() - dropsBase
	close(sink.gate) // release the runner
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	got := sink.records()
	var slots []int
	for _, r := range got {
		slots = append(slots, r.SlotIdx)
	}
	want := []int{0, 4, 5, 6, 7}
	if len(slots) != len(want) {
		t.Fatalf("delivered %v, want %v", slots, want)
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("delivered %v, want %v (oldest must be evicted first)", slots, want)
		}
	}
	if dropsBefore != 3 {
		t.Errorf("drop counter = %d before drain, want 3", dropsBefore)
	}
}

// TestDrainOnCloseDeliversAllToBlockSink proves the zero-loss drain
// contract: everything published before Close reaches a Block sink,
// in order, even with a queue far smaller than the record count.
func TestDrainOnCloseDeliversAllToBlockSink(t *testing.T) {
	b := New()
	sink := &collectSink{}
	if _, err := b.Subscribe("edge_drain", Block, sink,
		WithQueueSize(32), WithBatch(8, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := b.Publish(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	got := sink.records()
	if len(got) != n {
		t.Fatalf("delivered %d records, want %d (Block sink must lose zero on Close)", len(got), n)
	}
	for i, r := range got {
		if r.SlotIdx != i {
			t.Fatalf("record %d has slot %d: order broken", i, r.SlotIdx)
		}
	}
}

// TestBatchFlushMaxDelayTimer: with sparse traffic (a single record,
// far fewer than maxBatch), the max-delay timer must flush the batch.
func TestBatchFlushMaxDelayTimer(t *testing.T) {
	b := New()
	defer b.Close()
	sink := &collectSink{}
	if _, err := b.Subscribe("edge_sparse", Block, sink,
		WithBatch(1000, 50*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(rec(7)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.records()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	got := sink.records()
	if len(got) != 1 || got[0].SlotIdx != 7 {
		t.Fatalf("sparse record never flushed by the max-delay timer: %v", got)
	}
}

// TestBatchFlushMaxBatch: heavy traffic must flush on batch size, not
// wait out a long delay timer.
func TestBatchFlushMaxBatch(t *testing.T) {
	b := New()
	sink := &collectSink{}
	if _, err := b.Subscribe("edge_maxbatch", Block, sink,
		WithQueueSize(2048), WithBatch(64, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	const n = 1024
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := b.Publish(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.records()) < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(sink.records()) != n {
		t.Fatalf("delivered %d/%d", len(sink.records()), n)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deliveries waited on the delay timer (%v) despite full batches", elapsed)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryThenQuarantine: a failing sink is retried with backoff, then
// quarantined so later batches become counted drops without touching
// the sink; after the cooldown a healthy sink delivers again.
func TestRetryThenQuarantine(t *testing.T) {
	b := New()
	defer b.Close()
	sink := &collectSink{}
	sink.failing.Store(true)
	sub, err := b.Subscribe("edge_quarantine", Block, sink,
		WithBatch(1, time.Millisecond),
		withRetry(2, time.Millisecond, 4*time.Millisecond),
		withQuarantine(1, 300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	dropsBase := sub.Dropped()
	quarantinesBase := obs.Snapshot()[`nrscope_bus_sink_quarantines_total{sink="edge_quarantine"}`]
	if err := b.Publish(rec(0)); err != nil {
		t.Fatal(err)
	}
	// 1 attempt + 2 retries, then quarantine.
	deadline := time.Now().Add(5 * time.Second)
	for sink.calls.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sink.calls.Load(); got != 3 {
		t.Fatalf("WriteBatch called %d times, want 3 (1 + 2 retries)", got)
	}
	if obs.Snapshot()[`nrscope_bus_sink_quarantines_total{sink="edge_quarantine"}`]-quarantinesBase < 1 {
		t.Error("quarantine never engaged")
	}
	// While quarantined: dropped without a sink call.
	calls := sink.calls.Load()
	if err := b.Publish(rec(1)); err != nil {
		t.Fatal(err)
	}
	for sub.Dropped()-dropsBase < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sink.calls.Load() != calls {
		t.Error("quarantined sink was still called")
	}
	if got := sub.Dropped() - dropsBase; got != 2 {
		t.Errorf("dropped = %d, want 2 (failed batch + quarantined batch)", got)
	}
	// After cooldown the sink recovered: delivery resumes.
	sink.failing.Store(false)
	time.Sleep(350 * time.Millisecond)
	if err := b.Publish(rec(2)); err != nil {
		t.Fatal(err)
	}
	for len(sink.records()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got := sink.records()
	if len(got) != 1 || got[0].SlotIdx != 2 {
		t.Fatalf("post-cooldown delivery = %v, want slot 2", got)
	}
}

// TestSubscriptionCloseDetaches: closing one subscription must not
// disturb its siblings.
func TestSubscriptionCloseDetaches(t *testing.T) {
	b := New()
	left, right := &collectSink{}, &collectSink{}
	subL, err := b.Subscribe("edge_left", Block, left, WithBatch(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("edge_right", Block, right, WithBatch(1, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(rec(0)); err != nil {
		t.Fatal(err)
	}
	subL.Close()
	if !left.closed.Load() {
		t.Error("closed subscription's sink not closed")
	}
	if b.Subscribers() != 1 {
		t.Errorf("Subscribers = %d after detach, want 1", b.Subscribers())
	}
	if err := b.Publish(rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(left.records()); got != 1 {
		t.Errorf("detached sink got %d records, want 1 (only the pre-detach one)", got)
	}
	if got := len(right.records()); got != 2 {
		t.Errorf("surviving sink got %d records, want 2", got)
	}
}

// TestDrainZeroLossWithConcurrentSlowTCP is the subsystem's acceptance
// test: a Block-policy JSONL sink must lose zero records across
// Bus.Close while a concurrent DropOldest TCP subscriber with a full
// queue (its client never reads) reports drops through the obs
// counters — no stall, no deadlock, no panic.
func TestDrainZeroLossWithConcurrentSlowTCP(t *testing.T) {
	before := obs.Snapshot()
	b := New()
	path := filepath.Join(t.TempDir(), "drain.jsonl")
	jsonl, err := NewJSONLFileSink(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("jsonl", Block, jsonl, WithQueueSize(64), WithBatch(16, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	srv := newTCPServer(t, b, 200*time.Millisecond, WithQueueSize(16), WithBatch(8, time.Millisecond))
	// A TCP subscriber that never reads: its queue fills, DropOldest
	// recycles it, and its socket writes eventually hit the deadline.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Subscribers() != 1 {
		t.Fatal("TCP subscriber never registered")
	}

	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := b.Publish(rec(i)); err != nil {
				t.Errorf("Publish %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Publish stalled behind the slow TCP subscriber")
	}

	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Logf("drain reported sink errors (expected for the dead TCP conn): %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Bus.Close deadlocked draining a slow TCP subscriber")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := telemetry.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("JSONL sink has %d records, want %d (zero loss through Block drain)", len(got), n)
	}
	for i, r := range got {
		if r.SlotIdx != i {
			t.Fatalf("record %d has slot %d: order broken", i, r.SlotIdx)
		}
	}
	delta := obs.Delta(before, obs.Snapshot())
	if delta[`nrscope_bus_sink_dropped_total{sink="tcp"}`] <= 0 {
		t.Error("slow TCP subscriber reported no drops")
	}
	if delta[`nrscope_bus_sink_dropped_total{sink="jsonl"}`] != 0 {
		t.Errorf("JSONL sink dropped %v records", delta[`nrscope_bus_sink_dropped_total{sink="jsonl"}`])
	}
	if delta[`nrscope_bus_sink_delivered_total{sink="jsonl"}`] != n {
		t.Errorf("JSONL delivered counter = %v, want %d", delta[`nrscope_bus_sink_delivered_total{sink="jsonl"}`], n)
	}
}

// TestBlockPolicyBackpressure: a Block subscriber with a wedged sink
// must make Publish wait (not drop) until queue space frees.
func TestBlockPolicyBackpressure(t *testing.T) {
	b := New()
	sink := &collectSink{gate: make(chan struct{})}
	sub, err := b.Subscribe("edge_block", Block, sink,
		WithQueueSize(2), WithBatch(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		for i := 0; i < 8; i++ {
			_ = b.Publish(rec(i))
		}
	}()
	select {
	case <-blocked:
		t.Fatal("publisher never blocked on a full Block queue")
	case <-time.After(100 * time.Millisecond):
	}
	close(sink.gate)
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher never unblocked after the sink drained")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.records()); got != 8 {
		t.Errorf("delivered %d records, want all 8", got)
	}
	if sub.Dropped() != 0 {
		t.Errorf("Block subscriber dropped %d records", sub.Dropped())
	}
}

func TestPolicyString(t *testing.T) {
	if DropOldest.String() != "drop-oldest" || Block.String() != "block" {
		t.Error("policy strings wrong")
	}
}

// TestQuarantineCooldownResume: a quarantined sink resumes normal
// delivery once the cooldown elapses — the batch that arrives after the
// quarantine window is delivered, not dropped.
func TestQuarantineCooldownResume(t *testing.T) {
	b := New()
	defer b.Close()
	sink := &collectSink{}
	sink.failing.Store(true)
	sub, err := b.Subscribe("edge_cooldown", Block, sink,
		WithBatch(1, time.Millisecond),
		withRetry(0, time.Millisecond, time.Millisecond),
		withQuarantine(2, 120*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	base := sub.Stats()
	deadline := time.Now().Add(5 * time.Second)
	wait := func(cond func() bool, what string) {
		t.Helper()
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (stats %+v)", what, sub.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Two consecutive failures engage the quarantine.
	if err := b.Publish(rec(0)); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(rec(1)); err != nil {
		t.Fatal(err)
	}
	wait(func() bool { return sub.Stats().Quarantines-base.Quarantines >= 1 }, "quarantine entry")
	calls := sink.calls.Load()
	// While quarantined: dropped without touching the sink.
	if err := b.Publish(rec(2)); err != nil {
		t.Fatal(err)
	}
	wait(func() bool { return sub.Stats().Dropped-base.Dropped >= 3 }, "quarantine drop")
	if got := sink.calls.Load(); got != calls {
		t.Fatalf("quarantined sink called %d more times", got-calls)
	}
	// Past the cooldown, a healthy sink delivers again.
	sink.failing.Store(false)
	time.Sleep(150 * time.Millisecond)
	if err := b.Publish(rec(3)); err != nil {
		t.Fatal(err)
	}
	wait(func() bool { return len(sink.records()) == 1 }, "post-cooldown delivery")
	if got := sink.records(); got[0].SlotIdx != 3 {
		t.Fatalf("post-cooldown delivery = slot %d, want 3", got[0].SlotIdx)
	}
	st := sub.Stats()
	if st.Quarantines-base.Quarantines != 1 {
		t.Errorf("quarantines = %d, want 1", st.Quarantines-base.Quarantines)
	}
	if st.Dropped-base.Dropped != 3 || st.Delivered-base.Delivered != 1 {
		t.Errorf("dropped/delivered = %d/%d, want 3/1",
			st.Dropped-base.Dropped, st.Delivered-base.Delivered)
	}
}

// TestDeliverySuccessResetsFailureCounter: one successful batch resets
// the consecutive-failure counter, so interleaved failures never reach
// the quarantine threshold — only an unbroken run does.
func TestDeliverySuccessResetsFailureCounter(t *testing.T) {
	b := New()
	defer b.Close()
	sink := &collectSink{}
	sub, err := b.Subscribe("edge_failreset", Block, sink,
		WithBatch(1, time.Millisecond),
		withRetry(0, time.Millisecond, time.Millisecond),
		withQuarantine(3, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	base := sub.Stats()
	deadline := time.Now().Add(5 * time.Second)
	wait := func(cond func() bool, what string) {
		t.Helper()
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (stats %+v)", what, sub.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	step := func(slot int, fail bool, calls int64) {
		t.Helper()
		sink.failing.Store(fail)
		if err := b.Publish(rec(slot)); err != nil {
			t.Fatal(err)
		}
		wait(func() bool { return sink.calls.Load() >= calls }, "sink call")
	}
	// fail, fail, ok, fail, fail: without the reset the 4th failure
	// would be the 3rd consecutive and quarantine the sink.
	step(0, true, 1)
	step(1, true, 2)
	step(2, false, 3)
	step(3, true, 4)
	step(4, true, 5)
	wait(func() bool { return sub.Stats().Dropped-base.Dropped >= 4 }, "failed-batch accounting")
	time.Sleep(10 * time.Millisecond) // let the post-WriteBatch bookkeeping settle
	if q := sub.Stats().Quarantines - base.Quarantines; q != 0 {
		t.Fatalf("quarantines = %d after interleaved failures, want 0 (success must reset the counter)", q)
	}
	// A third truly-consecutive failure still quarantines.
	step(5, true, 6)
	wait(func() bool { return sub.Stats().Quarantines-base.Quarantines >= 1 }, "quarantine after 3 consecutive failures")
}

// TestDropNotify: the subscription's dropped counter (Stats, and
// nrscope_bus_sink_dropped_total{sink=<name>} behind it) counts every
// DropOldest eviction synchronously with the push that caused it, and
// delivered + dropped closes against the published total.
func TestDropNotify(t *testing.T) {
	b := New()
	sink := &collectSink{gate: make(chan struct{})}
	sub, err := b.Subscribe("edge_dropnotify", DropOldest, sink,
		WithQueueSize(1), WithBatch(1, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	base := sub.Stats()
	// r0 occupies the (gated) sink; r1 queues; r2 and r3 each evict.
	if err := b.Publish(rec(0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.calls.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= 3; i++ {
		if err := b.Publish(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sub.Stats().Dropped - base.Dropped; got != 2 {
		t.Fatalf("counted %d drops, want 2 (evictions are counted synchronously)", got)
	}
	close(sink.gate)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if sent, dropped := st.Delivered-base.Delivered, st.Dropped-base.Dropped; sent+dropped != 4 || dropped != 2 {
		t.Fatalf("delivered %d + dropped %d, want 2 + 2 of 4 published", sent, dropped)
	}
	if got := len(sink.records()); got != 2 {
		t.Fatalf("delivered %d records, want 2 (r0 and the survivor r3)", got)
	}
}

// TestSinkPanicIsAFailedDelivery: a Block sink that panics on its 2nd
// batch loses exactly that batch, counted as a failure and a drop, and
// is not retried; the process survives, later batches are delivered and
// Close returns.
func TestSinkPanicIsAFailedDelivery(t *testing.T) {
	const published = 10
	b := New()
	sink := &collectSink{panicAt: 2}
	sub, err := b.Subscribe("edge_panic", Block, sink, WithBatch(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	base := sub.Stats()
	for i := 0; i < published; i++ {
		if err := b.Publish(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	failures, dropped, delivered := st.Failures-base.Failures, st.Dropped-base.Dropped, st.Delivered-base.Delivered
	if failures != 1 || dropped != 1 {
		t.Fatalf("failures %d, dropped %d; want 1 each", failures, dropped)
	}
	if delivered+dropped != published {
		t.Fatalf("delivered %d + dropped %d != published %d", delivered, dropped, published)
	}
	if got := sink.calls.Load(); got != published {
		t.Fatalf("WriteBatch called %d times, want %d: a panicked batch is not retried", got, published)
	}
	got := sink.records()
	if len(got) != published-1 || got[0].SlotIdx != 0 || got[1].SlotIdx != 2 {
		t.Fatalf("delivered %d records starting %v; want every record but slot 1", len(got), got[:min(len(got), 2)])
	}
	if !sink.closed.Load() {
		t.Fatal("sink not closed")
	}
}

// TestSinkPanicFailFastDetaches: under withFailFast a panic in
// WriteBatch is terminal: the subscription detaches and withOnClose
// fires.
func TestSinkPanicFailFastDetaches(t *testing.T) {
	b := New()
	defer b.Close()
	sink := &collectSink{panicAt: 2}
	closed := make(chan struct{})
	sub, err := b.Subscribe("edge_panic_failfast", Block, sink,
		WithBatch(1, 0), withFailFast(), withOnClose(func() { close(closed) }))
	if err != nil {
		t.Fatal(err)
	}
	base := sub.Stats()
	for i := 0; i < 2; i++ {
		if err := b.Publish(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("fail-fast subscription did not close after its sink panicked")
	}
	if n := b.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers after the fail-fast abort, want 0", n)
	}
	if st := sub.Stats(); st.Failures-base.Failures != 1 || st.Delivered-base.Delivered != 1 {
		t.Fatalf("failures %d, delivered %d; want 1, 1", st.Failures-base.Failures, st.Delivered-base.Delivered)
	}
	if !sink.closed.Load() {
		t.Fatal("sink not closed")
	}
}
