package telemetry

import (
	"math/rand"
	"testing"
	"time"
)

// ringWindow is the flow window as a ring of one entry per slot, zeroed
// slot by slot as the window moves: the oracle the bin-list window must
// match total for total.
type ringWindow struct {
	slots []int64
	last  int
	total int64
}

func (f *ringWindow) add(rec Record) {
	if rec.IsRetx {
		return
	}
	n := len(f.slots)
	f.advance(rec.SlotIdx)
	if rec.SlotIdx <= f.last-n {
		return
	}
	f.slots[rec.SlotIdx%n] += int64(rec.TBS)
	f.total += int64(rec.TBS)
}

func (f *ringWindow) advance(slotIdx int) {
	if slotIdx <= f.last {
		return
	}
	n := len(f.slots)
	steps := min(slotIdx-f.last, n)
	for i := 1; i <= steps; i++ {
		pos := (f.last + i) % n
		f.total -= f.slots[pos]
		f.slots[pos] = 0
	}
	f.last = slotIdx
}

// TestWindowEstimatorMatchesRing drives the estimator and the ring
// oracle with the same random Add / Bitrate / Remove sequences — records
// in order, late within the window, stale beyond it, retransmissions,
// jumps longer than the window, queries behind the newest record — and
// requires the same integer total, and so the same bitrate, at every
// query.
func TestWindowEstimatorMatchesRing(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		window := time.Duration(1+rng.Intn(60)) * tti
		w := NewWindowEstimator(window, tti)
		n := w.WindowSlots()
		oracle := map[flowKey]*ringWindow{}
		flow := func(k flowKey) *ringWindow {
			if oracle[k] == nil {
				oracle[k] = &ringWindow{slots: make([]int64, n)}
			}
			return oracle[k]
		}
		now := rng.Intn(3)
		for op := 0; op < 400; op++ {
			k := flowKey{rnti: uint16(1 + rng.Intn(3)), downlink: rng.Intn(2) == 0}
			switch r := rng.Intn(20); {
			case r < 12: // in order, sometimes after a gap
				now += rng.Intn(3)
				if rng.Intn(30) == 0 {
					now += n + rng.Intn(2*n+1)
				}
				rec := Record{SlotIdx: now, RNTI: k.rnti, Downlink: k.downlink, TBS: rng.Intn(5000), IsRetx: rng.Intn(8) == 0}
				w.Add(rec)
				if !rec.IsRetx { // a retransmission opens no flow
					flow(k).add(rec)
				}
			case r < 16: // late: in the window or beyond it
				slot := max(now-rng.Intn(2*n+2), 0)
				rec := Record{SlotIdx: slot, RNTI: k.rnti, Downlink: k.downlink, TBS: rng.Intn(5000)}
				w.Add(rec)
				flow(k).add(rec)
			case r < 19: // query, at or behind the newest slot, or ahead
				at := max(now+rng.Intn(n+2)-n/2, 0)
				got := w.Bitrate(k.rnti, k.downlink, at)
				var want float64
				if f := oracle[k]; f != nil {
					f.advance(at)
					want = float64(f.total) / (float64(n) * tti.Seconds())
					if g := w.flows[k].total; g != f.total {
						t.Fatalf("trial %d op %d: flow %+v total %d, ring %d", trial, op, k, g, f.total)
					}
				}
				if got != want {
					t.Fatalf("trial %d op %d: Bitrate(%+v, %d) = %v, ring %v", trial, op, k, at, got, want)
				}
			default:
				w.Remove(k.rnti)
				delete(oracle, flowKey{k.rnti, true})
				delete(oracle, flowKey{k.rnti, false})
			}
		}
	}
}

// TestWindowEstimatorAddCostPerRecord pins the point of the bins: a
// flow's state holds one bin per slot that carried a record in the
// window, however many slots pass between records, in one ring of
// window length allocated with the flow.
func TestWindowEstimatorAddCostPerRecord(t *testing.T) {
	w := NewWindowEstimator(100*time.Millisecond, tti) // 200 slots
	w.Add(rec(0, 1, 1000, false))
	f := w.flows[flowKey{1, true}]
	ring := &f.bins[0]
	for slot := 97; slot < 100000; slot += 97 {
		w.Add(rec(slot, 1, 1000, false))
	}
	if f.k != 3 {
		t.Errorf("%d live bins, want 3 (the records of the last 200 slots)", f.k)
	}
	if &f.bins[0] != ring || len(f.bins) != w.WindowSlots() {
		t.Error("the ring was reallocated")
	}
	if n := testing.AllocsPerRun(100, func() {
		w.Add(rec(100000, 1, 1000, false))
		w.Add(rec(99950, 1, 1000, false)) // late, in the window
	}); n != 0 {
		t.Errorf("Add allocates %.1f times on an existing flow, want 0", n)
	}
}
