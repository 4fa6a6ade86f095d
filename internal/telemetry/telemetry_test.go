package telemetry

import (
	"math"
	"testing"
	"time"

	"nrscope/internal/dci"
	"nrscope/internal/mcs"
	"nrscope/internal/phy"
)

const tti = 500 * time.Microsecond

func rec(slot int, rnti uint16, tbs int, retx bool) Record {
	return Record{SlotIdx: slot, RNTI: rnti, Downlink: true, TBS: tbs, IsRetx: retx}
}

func TestWindowEstimatorSteadyRate(t *testing.T) {
	w := NewWindowEstimator(100*time.Millisecond, tti) // 200 slots
	// 5000 bits every slot = 10 Mbit/s at 0.5 ms TTI.
	for s := 0; s < 400; s++ {
		w.Add(rec(s, 1, 5000, false))
	}
	got := w.Bitrate(1, true, 400)
	want := 5000.0 / tti.Seconds()
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("bitrate %.0f, want %.0f", got, want)
	}
}

func TestWindowEstimatorExcludesRetransmissions(t *testing.T) {
	w := NewWindowEstimator(10*time.Millisecond, tti)
	w.Add(rec(0, 1, 8000, false))
	w.Add(rec(1, 1, 8000, true)) // retx must not double count
	a := w.Bitrate(1, true, 2)
	want := 8000 / (float64(w.WindowSlots()) * tti.Seconds())
	if math.Abs(a-want)/want > 0.01 {
		t.Errorf("bitrate %.0f counts retransmissions (want %.0f)", a, want)
	}
}

func TestWindowEstimatorDecay(t *testing.T) {
	w := NewWindowEstimator(10*time.Millisecond, tti) // 20 slots
	w.Add(rec(0, 1, 10000, false))
	if w.Bitrate(1, true, 5) == 0 {
		t.Fatal("rate zero right after traffic")
	}
	if got := w.Bitrate(1, true, 100); got != 0 {
		t.Errorf("rate %.0f after window drained, want 0", got)
	}
}

func TestWindowEstimatorSeparatesFlows(t *testing.T) {
	w := NewWindowEstimator(10*time.Millisecond, tti)
	w.Add(rec(0, 1, 1000, false))
	w.Add(Record{SlotIdx: 0, RNTI: 1, Downlink: false, TBS: 9000})
	dl := w.Bitrate(1, true, 1)
	ul := w.Bitrate(1, false, 1)
	if dl == 0 || ul == 0 || dl == ul {
		t.Errorf("flows not separated: dl=%.0f ul=%.0f", dl, ul)
	}
	if w.Bitrate(2, true, 1) != 0 {
		t.Error("unknown UE has nonzero rate")
	}
	if len(w.Flows()) != 2 {
		t.Errorf("Flows = %d, want 2", len(w.Flows()))
	}
}

// TestWindowEstimatorDropsStaleRecords: a record whose slot has already
// left the window must be dropped, not credited to the ring position it
// aliases — the aliased slot is still inside the window, so the stale
// bits used to inflate the reported bitrate.
func TestWindowEstimatorDropsStaleRecords(t *testing.T) {
	w := NewWindowEstimator(10*time.Millisecond, tti) // 20 slots
	w.Add(rec(100, 1, 5000, false))
	// Slot 50 is 50 slots behind: far outside the 20-slot window. Its
	// ring position aliases slot 90, which IS in the window.
	w.Add(rec(50, 1, 7000, false))
	got := w.Bitrate(1, true, 100)
	want := 5000 / (float64(w.WindowSlots()) * tti.Seconds())
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("bitrate %.0f counts a stale record (want %.0f)", got, want)
	}
	// Once the window drains, the total must return to exactly zero —
	// no phantom bits left behind.
	if got := w.Bitrate(1, true, 300); got != 0 {
		t.Errorf("bitrate %.0f after drain, want 0", got)
	}
}

// TestWindowEstimatorAcceptsLateInWindow: a late record whose slot is
// still inside the window is real traffic and must count.
func TestWindowEstimatorAcceptsLateInWindow(t *testing.T) {
	w := NewWindowEstimator(10*time.Millisecond, tti) // 20 slots
	w.Add(rec(100, 1, 5000, false))
	w.Add(rec(95, 1, 3000, false)) // 5 slots late: retained
	got := w.Bitrate(1, true, 100)
	want := 8000 / (float64(w.WindowSlots()) * tti.Seconds())
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("bitrate %.0f, want %.0f with the late in-window record", got, want)
	}
}

func TestComputeSpare(t *testing.T) {
	hi, _ := mcs.TableQAM256.Lookup(27)
	lo, _ := mcs.TableQAM256.Lookup(5)
	ues := map[uint16]UELinkState{
		1: {Entry: hi, Layers: 1},
		2: {Entry: lo, Layers: 1},
	}
	sc := ComputeSpare(1000, 400, ues)
	if sc.ShareREs != 300 {
		t.Errorf("ShareREs = %d, want 300", sc.ShareREs)
	}
	// Same spare REs, different bitrates (paper Fig. 14a).
	if sc.PerUE[1] <= sc.PerUE[2] {
		t.Errorf("high-MCS UE spare %.0f not above low-MCS %.0f", sc.PerUE[1], sc.PerUE[2])
	}
}

// TestComputeSpareSmallSpare: a spare smaller than the UE count used to
// integer-divide to a zero share, reporting no spare capacity at all;
// the share is fractional now and the remainder is never discarded.
func TestComputeSpareSmallSpare(t *testing.T) {
	e, _ := mcs.TableQAM64.Lookup(10)
	ues := map[uint16]UELinkState{
		1: {Entry: e, Layers: 1},
		2: {Entry: e, Layers: 1},
		3: {Entry: e, Layers: 1},
		4: {Entry: e, Layers: 1},
	}
	sc := ComputeSpare(103, 100, ues) // spare 3 REs across 4 UEs
	if sc.ShareREsExact != 0.75 {
		t.Errorf("ShareREsExact = %v, want 0.75", sc.ShareREsExact)
	}
	for rnti, bits := range sc.PerUE {
		if bits <= 0 {
			t.Errorf("ue %d spare = %v, want > 0 for a 0.75-RE share", rnti, bits)
		}
	}
	// The shares must re-assemble the whole spare: nothing discarded.
	want := mcs.SpareCapacityBits(3, e, 1)
	var got float64
	for _, bits := range sc.PerUE {
		got += bits
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("summed spare %v, want %v (remainder discarded)", got, want)
	}
}

func TestComputeSpareEdgeCases(t *testing.T) {
	sc := ComputeSpare(100, 150, map[uint16]UELinkState{})
	if len(sc.PerUE) != 0 || sc.ShareREs != 0 {
		t.Error("empty-UE spare not empty")
	}
	e, _ := mcs.TableQAM64.Lookup(10)
	sc = ComputeSpare(100, 150, map[uint16]UELinkState{1: {Entry: e, Layers: 1}})
	if sc.PerUE[1] != 0 {
		t.Error("overallocated TTI produced positive spare")
	}
}

func TestFromGrant(t *testing.T) {
	cfg := dci.DefaultConfig(51)
	riv, _ := phy.EncodeRIV(51, 3, 7)
	d := dci.DCI{Format: dci.Format11, FreqAlloc: riv, MCS: 20, HARQID: 4, NDI: 1}
	g, err := dci.ToGrant(d, 0x4601, cfg, dci.DefaultLinkConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := FromGrant(77, phy.SlotRef{SFN: 3, Slot: 17}, g, true)
	if r.RNTI != 0x4601 || !r.Downlink || r.TBS != g.TBS || !r.IsRetx {
		t.Errorf("record fields wrong: %+v", r)
	}
	if r.REGs != 7*g.Time.NumSymbols {
		t.Errorf("REGs = %d", r.REGs)
	}
	if r.SFN != 3 || r.Slot != 17 || r.SlotIdx != 77 {
		t.Error("timing fields wrong")
	}
}

func TestRecordString(t *testing.T) {
	r := Record{SFN: 52, Slot: 2, RNTI: 0x4296, Format: "1_1", Downlink: true,
		AggLevel: 1, StartCCE: 7, NumPRB: 3, REGs: 36, MCS: 27, HARQID: 11, TBS: 3240}
	s := r.String()
	for _, want := range []string{"rnti=0x4296", "dci=1_1", "mcs=27", "harq_id=11", "tbs=3240", "tti=52.2"} {
		if !containsStr(s, want) {
			t.Errorf("record string %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
