package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nrscope/internal/raceflag"
	"nrscope/internal/radio"
)

// stepRaw advances the testbed one TTI and returns the capture without
// decoding it — the producer side of a DecodePool.
func (tb *testbed) stepRaw() *radio.Capture {
	out := tb.gnb.Step()
	return tb.rx.Capture(out.SlotIdx, out.Ref, out.Grid)
}

// slotDigest is the per-slot evidence we compare between a serial scope
// and a pool-driven scope: if these match slot for slot, the pool
// preserved the strict per-cell decode order the one-shot state
// transitions (MIB, SIB1, MSG4) depend on.
type slotDigest struct {
	slotIdx int
	records int
	newUEs  int
	mib     bool
	sib1    bool
}

func digest(res *SlotResult) slotDigest {
	return slotDigest{
		slotIdx: res.SlotIdx,
		records: len(res.Records),
		newUEs:  len(res.NewUEs),
		mib:     res.MIBAcquired,
		sib1:    res.SIB1Acquired,
	}
}

// TestDecodePoolMatchesSerial drives two identical cells — one through
// Scope.ProcessSlot directly, one through a 3-worker DecodePool — and
// requires slot-for-slot identical outcomes across the full acquisition
// sequence (MIB, SIB1, MSG4 discovery) and steady-state traffic.
func TestDecodePoolMatchesSerial(t *testing.T) {
	cfg := amari()
	const slots = 600

	serialTB := newTestbed(t, cfg, 25)
	serialTB.gnb.AddUE(bulk(cfg), -1)
	var want []slotDigest
	for i := 0; i < slots; i++ {
		_, res := serialTB.step()
		want = append(want, digest(res))
	}

	poolTB := newTestbed(t, cfg, 25)
	poolTB.gnb.AddUE(bulk(cfg), -1)
	pool := NewDecodePool(3, 32)
	var mu sync.Mutex
	var got []slotDigest
	if err := pool.AddCell(cfg.CellID, poolTB.scope, func(res *SlotResult) {
		mu.Lock()
		got = append(got, digest(res))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slots; i++ {
		if !pool.Submit(cfg.CellID, poolTB.stepRaw()) {
			t.Fatalf("Submit rejected at slot %d", i)
		}
	}
	pool.Flush()
	pool.Close()

	if len(got) != len(want) {
		t.Fatalf("pool delivered %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d diverged: pool %+v, serial %+v", i, got[i], want[i])
		}
	}
	sw, pw := serialTB.scope.KnownUEs(), poolTB.scope.KnownUEs()
	if len(sw) != len(pw) {
		t.Fatalf("known UEs diverged: pool %v, serial %v", pw, sw)
	}
	if !poolTB.scope.CellAcquired() || !poolTB.scope.SetupKnown() {
		t.Fatal("pool-driven scope missed cell acquisition or MSG4")
	}
}

// TestDecodePoolConcurrentCells runs several cells through a shared
// pool from concurrent producers, crossing every acquisition transition
// (MIB, SIB1, RRC Setup) while workers steal across cells. Primarily a
// -race exercise; it also checks each cell completed acquisition and
// the pool's accounting closed.
func TestDecodePoolConcurrentCells(t *testing.T) {
	const (
		cells = 3
		slots = 500
	)
	pool := NewDecodePool(4, 16)
	tbs := make([]*testbed, cells)
	ids := make([]uint16, cells)
	var decoded atomic.Int64
	for i := 0; i < cells; i++ {
		cfg := amari()
		cfg.CellID = uint16(100 + i)
		cfg.Seed = int64(7 + i)
		tbs[i] = newTestbed(t, cfg, 25)
		tbs[i].gnb.AddUE(bulk(cfg), -1)
		ids[i] = cfg.CellID
		if err := pool.AddCell(cfg.CellID, tbs[i].scope, func(res *SlotResult) {
			decoded.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for s := 0; s < slots; s++ {
				if !pool.Submit(ids[i], tbs[i].stepRaw()) {
					t.Errorf("cell %d: Submit rejected at slot %d", ids[i], s)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	pool.Close()

	if n := decoded.Load(); n != cells*slots {
		t.Fatalf("decoded %d slots, want %d", n, cells*slots)
	}
	for i, tb := range tbs {
		if !tb.scope.CellAcquired() {
			t.Errorf("cell %d never acquired MIB+SIB1", ids[i])
		}
		if !tb.scope.SetupKnown() {
			t.Errorf("cell %d never saw MSG4", ids[i])
		}
		if len(tb.scope.KnownUEs()) == 0 {
			t.Errorf("cell %d discovered no UEs", ids[i])
		}
	}
}

// TestDecodePoolSubmitAfterClose: a Submit once the pool is closed is
// refused, not deadlocked.
func TestDecodePoolSubmitAfterClose(t *testing.T) {
	cfg := amari()
	tb := newTestbed(t, cfg, 25)
	pool := NewDecodePool(1, 4)
	if err := pool.AddCell(cfg.CellID, tb.scope, nil); err != nil {
		t.Fatal(err)
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	if pool.Submit(cfg.CellID, tb.stepRaw()) {
		t.Fatal("Submit accepted after Close")
	}
	pool.Close() // idempotent
}

// TestDecodePoolSubmitBlocksWhenFull: with one slot parked in its
// handler and the cell's ring full, the next Submit must wait until the
// handler is released (radio back-pressure), and every slot is then
// decoded in submission order.
func TestDecodePoolSubmitBlocksWhenFull(t *testing.T) {
	const depth = 2
	pool := NewDecodePool(1, depth)
	entered, release := make(chan struct{}), make(chan struct{})
	var got []int
	if err := pool.AddCell(1, New(1), func(res *SlotResult) {
		if res.SlotIdx == 0 {
			entered <- struct{}{}
			<-release
		}
		got = append(got, res.SlotIdx)
	}); err != nil {
		t.Fatal(err)
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var released atomic.Bool
	releaseHandler := sync.OnceFunc(func() {
		released.Store(true)
		close(release)
	})
	defer releaseHandler() // before Close, so a failed check cannot hang it

	// A nil grid decodes to an empty result at once.
	pool.Submit(1, &radio.Capture{SlotIdx: 0})
	<-entered // slot 0 is in flight, the ring is empty
	for i := 1; i <= depth; i++ {
		pool.Submit(1, &radio.Capture{SlotIdx: i})
	}

	started, returned := make(chan struct{}), make(chan bool)
	go func() {
		close(started)
		pool.Submit(1, &radio.Capture{SlotIdx: depth + 1})
		returned <- released.Load()
	}()
	<-started
	// Yield rather than sleep: a Submit that does not block returns
	// within these yields, and one that does can never fail here.
	for i := 0; i < 100; i++ {
		select {
		case <-returned:
			t.Fatal("Submit returned while the ring was full and the handler parked")
		default:
			runtime.Gosched()
		}
	}
	releaseHandler()
	if !<-returned {
		t.Fatal("Submit returned before the handler was released")
	}
	pool.Flush()

	if len(got) != depth+2 {
		t.Fatalf("decoded slots %v, want 0..%d", got, depth+1)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("decoded slots %v, want 0..%d in order", got, depth+1)
		}
	}
}

// TestDecodePoolSteadyStateAllocs: the pool machinery (ring, claim,
// doorbell, flush) must add no allocations on top of the decode itself.
// Measured differentially: allocs/slot through the pool minus allocs/
// slot of a bare ProcessSlot on an identically warmed twin cell.
func TestDecodePoolSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := amari()
	const warm = 600

	serialTB := newTestbed(t, cfg, 25)
	serialTB.gnb.AddUE(bulk(cfg), -1)
	for i := 0; i < warm; i++ {
		serialTB.step()
	}
	scap := serialTB.stepRaw()
	serialTB.scope.ProcessSlot(scap)
	serial := testing.AllocsPerRun(200, func() {
		serialTB.scope.ProcessSlot(scap)
	})

	poolTB := newTestbed(t, cfg, 25)
	poolTB.gnb.AddUE(bulk(cfg), -1)
	pool := NewDecodePool(2, 32)
	if err := pool.AddCell(cfg.CellID, poolTB.scope, nil); err != nil {
		t.Fatal(err)
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < warm; i++ {
		pool.Submit(cfg.CellID, poolTB.stepRaw())
	}
	pool.Flush()
	pcap := poolTB.stepRaw()
	pool.Submit(cfg.CellID, pcap)
	pool.Flush()
	pooled := testing.AllocsPerRun(200, func() {
		pool.Submit(cfg.CellID, pcap)
		pool.Flush()
	})

	// The decode itself allocates (snapshot, result); the pool must not
	// add to it. Allow one alloc of slack for goroutine wakeup noise.
	if pooled > serial+1 {
		t.Fatalf("pool path allocates %.1f/slot vs %.1f/slot serial — pool overhead must be allocation-free",
			pooled, serial)
	}
}

// TestDecodePoolRecoversFromPanic: a slot whose decode panics (a nil
// capture faults inside ProcessSlot) and a slot whose handler panics
// each cost exactly that slot. The cell's later slots are still
// delivered in order, both panics are counted, pending closes so Flush
// returns, and Close does not hang on a leaked claim.
func TestDecodePoolRecoversFromPanic(t *testing.T) {
	cfg := amari()
	tb := newTestbed(t, cfg, 25)
	tb.gnb.AddUE(bulk(cfg), -1)
	const (
		slots        = 120
		decodeFault  = 40 // submitted as a nil capture
		handlerFault = 80 // handler panics on this slot's result
	)
	pool := NewDecodePool(2, 8)
	var got []int
	if err := pool.AddCell(cfg.CellID, tb.scope, func(res *SlotResult) {
		if res.SlotIdx == handlerFault {
			panic("injected handler fault")
		}
		got = append(got, res.SlotIdx)
	}); err != nil {
		t.Fatal(err)
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	panicsBefore := met.poolPanics.Value()
	for i := 0; i < slots; i++ {
		cap := tb.stepRaw()
		if cap.SlotIdx != i {
			t.Fatalf("testbed slot %d at step %d", cap.SlotIdx, i)
		}
		if i == decodeFault {
			cap = nil
		}
		if !pool.Submit(cfg.CellID, cap) {
			t.Fatalf("Submit rejected at slot %d", i)
		}
	}
	pool.Flush()
	closed := make(chan struct{})
	go func() {
		pool.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after a recovered panic")
	}

	if n := met.poolPanics.Value() - panicsBefore; n != 2 {
		t.Fatalf("panic counter rose by %d, want 2", n)
	}
	var want []int
	for i := 0; i < slots; i++ {
		if i != decodeFault && i != handlerFault {
			want = append(want, i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d slots, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d is slot %d, want %d (order broken after panic)", i, got[i], want[i])
		}
	}
}
