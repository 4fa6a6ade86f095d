// Package telemetry defines NR-Scope's output: per-DCI records, the
// sliding-window throughput estimator of §3.2.2, the fair-share spare
// capacity computation of §5.4.1, and the JSONL wire codec: AppendJSON,
// which every line sink encodes with, and the readers (ReadAll for log
// files, Dial/Client for the TCP feed of the §6 congestion-control use
// case). The sinks that produce that format live in internal/bus.
package telemetry

import (
	"fmt"
	"time"

	"nrscope/internal/dci"
	"nrscope/internal/mcs"
	"nrscope/internal/phy"
)

// Record is one decoded DCI's telemetry — the row NR-Scope writes per
// transmission it observes.
type Record struct {
	SlotIdx  int     `json:"slot_idx"`
	SFN      int     `json:"sfn"`
	Slot     int     `json:"slot"`
	RNTI     uint16  `json:"rnti"`
	Downlink bool    `json:"downlink"`
	Format   string  `json:"dci"`
	TBS      int     `json:"tbs"`
	NumPRB   int     `json:"nof_prb"`
	REGs     int     `json:"nof_reg"`
	NRE      int     `json:"nof_re"`
	MCS      int     `json:"mcs"`
	Qm       int     `json:"qm"`
	R        float64 `json:"code_rate"`
	AggLevel int     `json:"agg_level"`
	StartCCE int     `json:"cce"`
	HARQID   int     `json:"harq_id"`
	NDI      uint8   `json:"ndi"`
	RV       int     `json:"rv"`
	IsRetx   bool    `json:"retx"`
	NewUE    bool    `json:"new_ue,omitempty"`
	Common   bool    `json:"common,omitempty"`
	// TMs is the record's slot time in milliseconds since capture
	// start, derived from the slot index and the cell's numerology at
	// publish time — the one timestamp history bins and external JSON
	// consumers agree on (Ref itself does not serialize).
	TMs float64     `json:"t_ms"`
	Ref phy.SlotRef `json:"-"`
}

// String renders the record in the srsRAN-log style of the paper's
// Appendix B DCI sample.
func (r Record) String() string {
	dir := "ul"
	if r.Downlink {
		dir = "dl"
	}
	return fmt.Sprintf("tti=%d.%d rnti=0x%04x dci=%s %s L=%d cce=%d f_alloc=%d_prb t_alloc=%d_reg mcs=%d ndi=%d rv=%d harq_id=%d tbs=%d retx=%v",
		r.SFN, r.Slot, r.RNTI, r.Format, dir, r.AggLevel, r.StartCCE, r.NumPRB, r.REGs, r.MCS, r.NDI, r.RV, r.HARQID, r.TBS, r.IsRetx)
}

// FromGrant builds a record from a translated grant.
func FromGrant(slotIdx int, ref phy.SlotRef, g dci.Grant, isRetx bool) Record {
	return Record{
		SlotIdx:  slotIdx,
		SFN:      ref.SFN,
		Slot:     ref.Slot,
		RNTI:     g.RNTI,
		Downlink: g.Downlink,
		Format:   g.Format.String(),
		TBS:      g.TBS,
		NumPRB:   g.NumPRB,
		REGs:     g.REGCount(),
		NRE:      g.NRE,
		MCS:      g.MCSIndex,
		Qm:       g.Qm,
		R:        g.R,
		HARQID:   g.HARQID,
		NDI:      g.NDI,
		RV:       g.RV,
		IsRetx:   isRetx,
		Ref:      ref,
	}
}

// WindowEstimator maintains per-UE sliding-window bitrates from TBS
// records (paper §3.2.2: "we record the TBS for every UE in each TTI,
// maintaining a sliding window to calculate the bit rate").
type WindowEstimator struct {
	tti         time.Duration
	windowSlots int
	flows       map[flowKey]*flowWindow
}

type flowKey struct {
	rnti     uint16
	downlink bool
}

// flowWindow is one flow's window: the bits of its accepted records
// summed per slot, for the slots in (last-n, last] that carried any, as
// k bins in ascending slot order in a ring of n from head. The bins'
// slots are distinct and inside the window, so the ring never
// overflows. Moving the window drops bins from the front, so its cost
// follows the records, not the slots elapsed.
type flowWindow struct {
	bins    []slotBits
	head, k int
	last    int // the window's last slot
	total   int64
}

type slotBits struct {
	slot int
	bits int64
}

// bin returns the i-th live bin, i < n.
func (f *flowWindow) bin(i int) *slotBits {
	i += f.head
	if i >= len(f.bins) {
		i -= len(f.bins)
	}
	return &f.bins[i]
}

// NewWindowEstimator creates an estimator with the given window length.
func NewWindowEstimator(window time.Duration, tti time.Duration) *WindowEstimator {
	n := int(window / tti)
	if n < 1 {
		n = 1
	}
	return &WindowEstimator{tti: tti, windowSlots: n, flows: make(map[flowKey]*flowWindow)}
}

// WindowSlots returns the window length in TTIs.
func (w *WindowEstimator) WindowSlots() int { return w.windowSlots }

// Add feeds one record. Retransmissions do not add throughput (the
// same bits were counted at their first transmission). Records older
// than the window are dropped: the window has already moved past their
// slot, so crediting them would inflate it with out-of-window bits.
func (w *WindowEstimator) Add(rec Record) {
	if rec.IsRetx {
		return
	}
	k := flowKey{rec.RNTI, rec.Downlink}
	f := w.flows[k]
	if f == nil {
		f = &flowWindow{bins: make([]slotBits, w.windowSlots)}
		w.flows[k] = f
	}
	f.advance(rec.SlotIdx, w.windowSlots)
	if rec.SlotIdx <= f.last-w.windowSlots {
		return // stale: the window has moved past this slot
	}
	f.add(rec.SlotIdx, int64(rec.TBS))
}

// add credits bits to slot, which lies in the window: the last bin in
// order, or a late record's bin found by a walk back from it.
func (f *flowWindow) add(slot int, bits int64) {
	f.total += bits
	i := f.k
	for i > 0 && f.bin(i-1).slot > slot {
		i--
	}
	if i > 0 && f.bin(i-1).slot == slot {
		f.bin(i - 1).bits += bits
		return
	}
	for j := f.k; j > i; j-- {
		*f.bin(j) = *f.bin(j - 1)
	}
	*f.bin(i) = slotBits{slot, bits}
	f.k++
}

// advance moves the window to end at slotIdx (never backwards),
// dropping the bins that leave it.
func (f *flowWindow) advance(slotIdx, n int) {
	if slotIdx <= f.last {
		return
	}
	f.last = slotIdx
	for f.k > 0 && f.bin(0).slot <= slotIdx-n {
		f.total -= f.bin(0).bits
		f.head, f.k = (f.head+1)%len(f.bins), f.k-1
	}
}

// Remove forgets a UE's flows in both directions — called when the UE
// ages out of tracking so the flow map cannot grow without bound under
// C-RNTI churn.
func (w *WindowEstimator) Remove(rnti uint16) {
	delete(w.flows, flowKey{rnti, true})
	delete(w.flows, flowKey{rnti, false})
}

// Bitrate returns the flow's current windowed bitrate in bits/second,
// evaluated at nowSlot.
func (w *WindowEstimator) Bitrate(rnti uint16, downlink bool, nowSlot int) float64 {
	f := w.flows[flowKey{rnti, downlink}]
	if f == nil {
		return 0
	}
	f.advance(nowSlot, w.windowSlots)
	return float64(f.total) / (float64(w.windowSlots) * w.tti.Seconds())
}

// Flows lists the tracked (rnti, downlink) pairs.
func (w *WindowEstimator) Flows() []struct {
	RNTI     uint16
	Downlink bool
} {
	out := make([]struct {
		RNTI     uint16
		Downlink bool
	}, 0, len(w.flows))
	for k := range w.flows {
		out = append(out, struct {
			RNTI     uint16
			Downlink bool
		}{k.rnti, k.downlink})
	}
	return out
}

// SpareCapacity implements the paper's §5.4.1 fair-share estimate: the
// REs the cell left unused in a TTI are split evenly across the active
// UEs and re-rated at each UE's own modulation and coding rate, giving
// a per-UE spare bitrate (Fig. 14).
type SpareCapacity struct {
	// TotalREs is the data-region RE budget of the TTI.
	TotalREs int
	// UsedREs is the sum of allocated effective REs.
	UsedREs int
	// UEs are the active UEs the spare was split across, in the scope's
	// tracked-UE order; Bits(i) is UE i's share in bits.
	UEs []SpareUE
	// ShareREs is the spare REs each UE was assigned, rounded down (the
	// integer view of ShareREsExact, kept for display).
	ShareREs int
	// ShareREsExact is the exact fractional per-UE share. Bits rates
	// this, so a spare smaller than the UE count still yields nonzero
	// per-UE capacity instead of rounding to nothing.
	ShareREsExact float64
}

// UELinkState is the link a UE's spare share is rated at: its current
// MCS entry and layer count.
type UELinkState struct {
	Entry  mcs.Entry
	Layers int
}

// SpareUE is one active UE of a spare split.
type SpareUE struct {
	RNTI uint16
	UELinkState
}

// Bits returns UE i's fair share of spare bits in the TTI: the share,
// rated at the UE's MCS and layer count (at least one).
func (sc *SpareCapacity) Bits(i int) float64 {
	u := sc.UEs[i]
	return mcs.SpareCapacityBitsExact(sc.ShareREsExact, u.Entry, max(u.Layers, 1))
}

// ComputeSpare splits (totalREs - usedREs) evenly across ues. The split
// keeps ues as its UEs.
func ComputeSpare(totalREs, usedREs int, ues []SpareUE) SpareCapacity {
	sc := SpareCapacity{TotalREs: totalREs, UsedREs: usedREs, UEs: ues}
	if len(ues) == 0 {
		return sc
	}
	spare := max(totalREs-usedREs, 0)
	sc.ShareREs = spare / len(ues)
	sc.ShareREsExact = float64(spare) / float64(len(ues))
	return sc
}
