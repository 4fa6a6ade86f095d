package harq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocateTogglesNDI(t *testing.T) {
	e := NewEntity()
	id1, ndi1, ok := e.Allocate(1000)
	if !ok {
		t.Fatal("allocate failed on empty entity")
	}
	if err := e.Ack(id1); err != nil {
		t.Fatal(err)
	}
	// Cycle through all processes back to id1.
	for i := 0; i < MaxProcesses-1; i++ {
		id, _, ok := e.Allocate(1)
		if !ok {
			t.Fatal("allocate failed")
		}
		if err := e.Ack(id); err != nil {
			t.Fatal(err)
		}
	}
	id2, ndi2, ok := e.Allocate(2000)
	if !ok || id2 != id1 {
		t.Fatalf("expected to cycle back to process %d, got %d", id1, id2)
	}
	if ndi2 == ndi1 {
		t.Error("NDI did not toggle on new data for the same process")
	}
}

func TestAllocateExhaustion(t *testing.T) {
	e := NewEntity()
	for i := 0; i < MaxProcesses; i++ {
		if _, _, ok := e.Allocate(1); !ok {
			t.Fatalf("allocate %d failed early", i)
		}
	}
	if _, _, ok := e.Allocate(1); ok {
		t.Error("17th allocation succeeded")
	}
	for id := 0; id < MaxProcesses; id++ {
		if err := e.Ack(id); err != nil {
			t.Errorf("process %d not busy after exhaustion: %v", id, err)
		}
	}
}

func TestRetransmitKeepsNDI(t *testing.T) {
	e := NewEntity()
	id, ndi, _ := e.Allocate(5000)
	ndi2, tbs, err := e.Retransmit(id)
	if err != nil {
		t.Fatal(err)
	}
	if ndi2 != ndi {
		t.Error("retransmission toggled NDI")
	}
	if tbs != 5000 {
		t.Errorf("retransmission TBS %d, want 5000", tbs)
	}
}

func TestRetransmitInactiveErrors(t *testing.T) {
	e := NewEntity()
	if _, _, err := e.Retransmit(3); err == nil {
		t.Error("retransmit on inactive process accepted")
	}
	if err := e.Ack(3); err == nil {
		t.Error("ack on inactive process accepted")
	}
	if _, _, err := e.Retransmit(99); err == nil {
		t.Error("out-of-range process accepted")
	}
}

func TestCancelRestoresNDIParity(t *testing.T) {
	e := NewEntity()
	id1, ndi1, _ := e.Allocate(100)
	if err := e.Ack(id1); err != nil {
		t.Fatal(err)
	}
	// Cycle back to the same process, then cancel the allocation
	// (simulating PDCCH blocking before the DCI ever aired).
	for i := 0; i < MaxProcesses-1; i++ {
		id, _, _ := e.Allocate(1)
		_ = e.Ack(id)
	}
	id2, _, _ := e.Allocate(200)
	if id2 != id1 {
		t.Fatalf("expected process %d again, got %d", id1, id2)
	}
	if err := e.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	// The next real TB on this process must still toggle vs ndi1.
	for i := 0; i < MaxProcesses-1; i++ {
		id, _, _ := e.Allocate(1)
		_ = e.Ack(id)
	}
	id3, ndi3, _ := e.Allocate(300)
	if id3 != id1 {
		t.Fatalf("expected process %d again, got %d", id1, id3)
	}
	if ndi3 == ndi1 {
		t.Error("cancelled allocation broke NDI toggling")
	}
	if err := e.Cancel(5); err == nil {
		t.Error("cancel on inactive process accepted")
	}
}

func TestTrackerDetectsRetransmissions(t *testing.T) {
	tr := NewTracker()
	if tr.Observe(5, 1) {
		t.Error("first observation flagged as retx")
	}
	if !tr.Observe(5, 1) {
		t.Error("repeated NDI not flagged as retx")
	}
	if tr.Observe(5, 0) {
		t.Error("toggled NDI flagged as retx")
	}
	total, retx := tr.Stats()
	if total != 3 || retx != 1 {
		t.Errorf("stats = (%d,%d), want (3,1)", total, retx)
	}
}

func TestTrackerIndependentProcesses(t *testing.T) {
	tr := NewTracker()
	tr.Observe(0, 1)
	if tr.Observe(1, 1) {
		t.Error("different process flagged as retx")
	}
}

func TestTrackerIgnoresBadIDs(t *testing.T) {
	tr := NewTracker()
	if tr.Observe(-1, 0) || tr.Observe(16, 1) {
		t.Error("out-of-range harq id flagged")
	}
	if total, _ := tr.Stats(); total != 0 {
		t.Error("out-of-range observations counted")
	}
}

// TestEntityTrackerAgree drives a random gNB schedule through both the
// entity and the tracker and checks the tracker's retransmission count
// matches what the entity actually did — the paper's §3.2.2 claim that
// NDI tracking recovers the gNB's HARQ behaviour exactly.
func TestEntityTrackerAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEntity()
		tr := NewTracker()
		wantRetx := 0
		active := make(map[int]bool)
		for step := 0; step < 500; step++ {
			if len(active) > 0 && rng.Float64() < 0.3 {
				// Retransmit a random active process.
				var ids []int
				for id := range active {
					ids = append(ids, id)
				}
				id := ids[rng.Intn(len(ids))]
				ndi, _, err := e.Retransmit(id)
				if err != nil {
					return false
				}
				if tr.Observe(id, ndi) {
					wantRetx--
				} else {
					return false // tracker must flag it
				}
				wantRetx++
				_ = wantRetx
			} else if id, ndi, ok := e.Allocate(rng.Intn(8000) + 100); ok {
				if tr.Observe(id, ndi) {
					return false // new data must not be flagged
				}
				active[id] = true
			}
			// Random ACKs free processes.
			for id := range active {
				if rng.Float64() < 0.4 {
					if err := e.Ack(id); err != nil {
						return false
					}
					delete(active, id)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
