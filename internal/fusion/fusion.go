// Package fusion implements the paper's §7 "post-processing library"
// future-work item: NR-Scope instances on multiple USRPs decode multiple
// cells, and their telemetry streams are fused into one aggregate view —
// time-aligned cell load, a merged windowed stream, and cross-cell UE
// handover detection (a session going silent on one cell immediately
// followed by a new C-RNTI appearing on a neighbour).
//
// C-RNTIs are cell-local, so cross-cell identity can only be inferred:
// the detector matches departure/arrival timing and compares the flow's
// bitrate fingerprint before and after, reporting a confidence rather
// than a claim.
//
// The aggregator is strictly memory-bounded: every ingested record is
// folded into a history.Store (a shard's history partition, which also
// answers the /history query API), and the windowed views — Merged, carrier
// aggregation — are reconstructed from the store's fixed-depth bin
// rings. Per-UE session accounting is a compact fixed-size struct per
// retained C-RNTI, swept by the idle horizon; detected handovers live in
// a bounded ring. Nothing grows with the number of records ingested, so
// the aggregate survives the multi-day runs OWL-style control-channel
// monitors are built for.
package fusion

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"nrscope/internal/history"
	"nrscope/internal/phy"
	"nrscope/internal/telemetry"
)

// cellState tracks one monitored cell.
type cellState struct {
	id  uint16
	mu  phy.Numerology
	tti time.Duration

	// Per-UE session accounting, maintained from the record stream and
	// swept by the idle horizon. Bin-level activity lives in the history
	// store, not here.
	ues map[uint16]*ueActivity

	records int
	bits    int64 // downlink TBS bits total (load accounting)

	// First/last UE activity on the cell, tracked independently of the
	// ues map so idle eviction cannot shrink the observation span that
	// CellLoad divides by.
	seen            bool
	firstAt, lastAt time.Duration
}

// minCABins is the minimum active bins a session needs to enter
// carrier-aggregation matching: tiny sessions correlate by chance.
const minCABins = 10

// ueActivity is the fused session accounting of one C-RNTI on one cell.
type ueActivity struct {
	rnti      uint16
	firstSeen time.Duration
	lastSeen  time.Duration
	bits      int64
	dcis      int
}

// meanRate returns the session's average downlink rate in bits/s.
func (u *ueActivity) meanRate() float64 {
	d := (u.lastSeen - u.firstSeen).Seconds()
	if d <= 0 {
		d = 1e-3
	}
	return float64(u.bits) / d
}

// Handover is one cross-cell mobility candidate.
type Handover struct {
	FromCell uint16
	ToCell   uint16
	FromRNTI uint16
	ToRNTI   uint16
	// At is the arrival time on the target cell.
	At time.Duration
	// Gap is the silence between the last DCI on the source cell and
	// the first on the target.
	Gap time.Duration
	// Confidence in [0,1]: timing proximity combined with the bitrate
	// fingerprint similarity of the two sessions.
	Confidence float64
	// FromRate/ToRate are the two sessions' mean downlink rates in
	// bits/s: the fingerprint the confidence was refined with. FromRate
	// is frozen at detection (the source session is over); ToRate is the
	// arrival session's rate as of the Handovers call.
	FromRate float64
	ToRate   float64
}

// String implements fmt.Stringer.
func (h Handover) String() string {
	return fmt.Sprintf("handover cell%d:0x%04x -> cell%d:0x%04x at %v (gap %v, conf %.2f)",
		h.FromCell, h.FromRNTI, h.ToCell, h.ToRNTI, h.At.Round(time.Millisecond), h.Gap.Round(time.Millisecond), h.Confidence)
}

// handoverRec is the retained form of a detected handover: the timing
// candidate plus frozen references to the two sessions it scored, so
// later C-RNTI reuse or idle eviction cannot rescore it with a different
// UE's fingerprint.
type handoverRec struct {
	h        Handover // Confidence holds the timing-only score
	fromRate float64  // source session mean rate, snapshotted at detection
	to       *ueActivity
}

// Aggregator fuses multiple cells' telemetry streams.
type Aggregator struct {
	cells map[uint16]*cellState

	// HandoverWindow bounds the silence gap considered a handover.
	HandoverWindow time.Duration
	// MinSessionBits filters noise sessions from handover matching.
	MinSessionBits int64
	// IdleHorizon evicts per-cell UE activity idle longer than this, so
	// the ues maps stay bounded under C-RNTI churn (0 disables; keep it
	// well above HandoverWindow or departures can no longer be matched
	// to arrivals on neighbour cells).
	IdleHorizon time.Duration
	// MaxHandovers bounds the retained handover candidates: beyond it
	// the oldest is dropped.
	MaxHandovers int

	store *history.Store

	handovers []handoverRec
}

// NewWithStore creates an aggregator publishing into st — typically a
// shard's history partition, which also answers the history queries, so
// one copy of the bins backs both. The store's bin width becomes the
// correlation bin.
func NewWithStore(st *history.Store) *Aggregator {
	return &Aggregator{
		cells:          make(map[uint16]*cellState),
		HandoverWindow: 500 * time.Millisecond,
		MinSessionBits: 10000,
		IdleHorizon:    5 * time.Minute,
		MaxHandovers:   4096,
		store:          st,
	}
}

// Store returns the history store the aggregator publishes into.
func (a *Aggregator) Store() *history.Store { return a.store }

// AddCell registers a monitored cell and its numerology, registering it
// with the history store too unless a shared store already has it.
func (a *Aggregator) AddCell(cellID uint16, mu phy.Numerology) error {
	if !mu.Valid() {
		return fmt.Errorf("fusion: invalid numerology for cell %d", cellID)
	}
	if _, dup := a.cells[cellID]; dup {
		return fmt.Errorf("fusion: cell %d already registered", cellID)
	}
	if !a.store.HasCell(cellID) {
		if err := a.store.AddCell(cellID, mu.SlotDuration()); err != nil {
			return err
		}
	}
	a.cells[cellID] = &cellState{
		id: cellID, mu: mu, tti: mu.SlotDuration(),
		ues: make(map[uint16]*ueActivity),
	}
	return nil
}

// Ingest feeds one record from a cell's scope into the aggregate: the
// history store gets the bin-level data, the cell gets its compact
// session accounting.
func (a *Aggregator) Ingest(cellID uint16, rec telemetry.Record) error {
	c := a.cells[cellID]
	if c == nil {
		return fmt.Errorf("fusion: unknown cell %d", cellID)
	}
	at := time.Duration(rec.SlotIdx) * c.tti
	a.store.Ingest(cellID, rec)
	c.records++
	if a.IdleHorizon > 0 && c.records%512 == 0 {
		c.evictIdle(at - a.IdleHorizon)
	}
	if rec.Common {
		return nil
	}
	if !c.seen {
		c.seen, c.firstAt = true, at
	}
	if at > c.lastAt {
		c.lastAt = at
	}
	u := c.ues[rec.RNTI]
	if u == nil {
		u = &ueActivity{rnti: rec.RNTI, firstSeen: at}
		c.ues[rec.RNTI] = u
		// A fresh C-RNTI: check whether it looks like an arrival from a
		// recently silenced session on another cell.
		a.matchHandover(c, u, at)
	}
	u.lastSeen = at
	u.dcis++
	if rec.Downlink && !rec.IsRetx {
		u.bits += int64(rec.TBS)
		c.bits += int64(rec.TBS)
	}
	return nil
}

// evictIdle drops UE activity last seen before the cutoff. Sweeping
// every few hundred records amortizes the map walk; evicted sessions
// are older than the idle horizon, so (with the horizon above the
// handover window) they could no longer match an arrival anyway.
func (c *cellState) evictIdle(cutoff time.Duration) {
	for rnti, u := range c.ues {
		if u.lastSeen < cutoff {
			delete(c.ues, rnti)
		}
	}
}

// matchHandover looks for the best recently-departed session elsewhere,
// freezing both sessions' identities into the retained record so later
// RNTI reuse cannot rescore it. Equal confidence goes to the lowest
// (source cell, source RNTI), so the match does not depend on map order.
func (a *Aggregator) matchHandover(to *cellState, arrival *ueActivity, at time.Duration) {
	var best *handoverRec
	for _, from := range a.cells {
		if from.id == to.id {
			continue
		}
		for _, u := range from.ues {
			if u.bits < a.MinSessionBits {
				continue
			}
			gap := at - u.lastSeen
			if gap < 0 || gap > a.HandoverWindow {
				continue
			}
			conf := 1 - gap.Seconds()/a.HandoverWindow.Seconds()
			hr := handoverRec{
				h: Handover{
					FromCell: from.id, ToCell: to.id,
					FromRNTI: u.rnti, ToRNTI: arrival.rnti,
					At: at, Gap: gap, Confidence: conf,
				},
				fromRate: u.meanRate(),
				to:       arrival,
			}
			if best == nil || hr.h.Confidence > best.h.Confidence ||
				hr.h.Confidence == best.h.Confidence && cmp.Or(
					cmp.Compare(hr.h.FromCell, best.h.FromCell),
					cmp.Compare(hr.h.FromRNTI, best.h.FromRNTI)) < 0 {
				best = &hr
			}
		}
	}
	if best != nil {
		if a.MaxHandovers > 0 && len(a.handovers) >= a.MaxHandovers {
			n := copy(a.handovers, a.handovers[1:])
			a.handovers = a.handovers[:n]
		}
		a.handovers = append(a.handovers, *best)
	}
}

// rateSimilarity scores how alike two session bitrates are, in [0,1].
func rateSimilarity(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	r := a / b
	if r > 1 {
		r = 1 / r
	}
	return r
}

// Handovers returns the detected candidates with their confidence
// refined by the sessions' bitrate similarity. The refinement uses the
// sessions frozen at detection time — the source rate snapshot and the
// arrival session object — so idle eviction or C-RNTI reuse on either
// cell cannot swap in a different UE's fingerprint.
func (a *Aggregator) Handovers() []Handover {
	out := make([]Handover, 0, len(a.handovers))
	for _, hr := range a.handovers {
		h := hr.h
		h.FromRate = hr.fromRate
		h.ToRate = hr.to.meanRate()
		sim := rateSimilarity(h.FromRate, h.ToRate)
		h.Confidence = 0.5*h.Confidence + 0.5*sim
		out = append(out, h)
	}
	slices.SortFunc(out, CompareHandovers)
	return out
}

// CompareHandovers is the total order Handovers returns: by arrival
// time, then by every identity field.
func CompareHandovers(a, b Handover) int {
	return cmp.Or(
		cmp.Compare(a.At, b.At),
		cmp.Compare(a.ToCell, b.ToCell), cmp.Compare(a.ToRNTI, b.ToRNTI),
		cmp.Compare(a.FromCell, b.FromCell), cmp.Compare(a.FromRNTI, b.FromRNTI))
}

// CACandidate is a carrier-aggregation hypothesis: two cell-local
// identities whose DCI activity is so correlated in time that they look
// like one device served on two carriers (§7: the fused streams are
// "analyzed for carrier aggregation").
type CACandidate struct {
	CellA, CellB uint16
	RNTIA, RNTIB uint16
	// Overlap is the fraction of the sparser session's active bins that
	// are also active on the other carrier.
	Overlap float64
}

// String implements fmt.Stringer.
func (c CACandidate) String() string {
	return fmt.Sprintf("carrier-aggregation cell%d:0x%04x ~ cell%d:0x%04x (overlap %.2f)",
		c.CellA, c.RNTIA, c.CellB, c.RNTIB, c.Overlap)
}

// CarrierAggregation scans cross-cell session pairs over the history
// store's retained window and returns those whose activity-mask overlap
// meets minOverlap (e.g. 0.7). Sessions active in fewer than ten bins
// are ignored: tiny sessions correlate by chance.
func (a *Aggregator) CarrierAggregation(minOverlap float64) []CACandidate {
	ids := make([]uint16, 0, len(a.cells))
	for id := range a.cells {
		ids = append(ids, id)
	}
	slices.Sort(ids) // every pair comes out lower cell first
	var all []history.SeriesMask
	for _, id := range ids {
		for _, s := range a.store.UEs(id) {
			m, ok := a.store.ActivityMask(id, s.RNTI)
			if ok && m.Active >= minCABins {
				all = append(all, m)
			}
		}
	}
	var out []CACandidate
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[i].Cell == all[j].Cell {
				continue
			}
			ov := all[i].Overlap(all[j])
			if ov >= minOverlap {
				out = append(out, CACandidate{
					CellA: all[i].Cell, CellB: all[j].Cell,
					RNTIA: all[i].RNTI, RNTIB: all[j].RNTI,
					Overlap: ov,
				})
			}
		}
	}
	slices.SortFunc(out, CompareCA)
	return out
}

// CompareCA is the total order CarrierAggregation returns: by overlap,
// highest first, then by every identity field.
func CompareCA(a, b CACandidate) int {
	return cmp.Or(
		cmp.Compare(b.Overlap, a.Overlap),
		cmp.Compare(a.CellA, b.CellA), cmp.Compare(a.RNTIA, b.RNTIA),
		cmp.Compare(a.CellB, b.CellB), cmp.Compare(a.RNTIB, b.RNTIB))
}

// MergedBin is one cell's history bin in the fused windowed stream.
type MergedBin struct {
	Cell uint16
	history.BinSample
}

// At returns the bin's start as an absolute stream time.
func (m MergedBin) At() time.Duration {
	return time.Duration(m.StartMs * float64(time.Millisecond))
}

// Merged returns the fused stream as a bounded windowed view — each
// cell's retained history bins that saw traffic, interleaved in
// absolute-time order (the "aggregate data stream" of §7, reconstructed
// from the store's fixed-depth rings instead of a per-record buffer).
func (a *Aggregator) Merged() []MergedBin {
	var out []MergedBin
	for _, c := range a.cells {
		// The retained rings are Depth-bounded, far under the query cap.
		bins, _ := a.store.CellQuery(c.id, 0, 0, 1)
		for _, s := range bins {
			if s.Grants == 0 && s.TotalREs == 0 {
				continue // silent bin inside the retained window
			}
			out = append(out, MergedBin{Cell: c.id, BinSample: s})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartMs != out[j].StartMs {
			return out[i].StartMs < out[j].StartMs
		}
		return out[i].Cell < out[j].Cell
	})
	return out
}

// CellLoad reports a cell's mean downlink load in bits/s over the span
// it has been observed. The span is the cell's own first-to-last
// activity, independent of which UE sessions are still retained, so
// idle eviction cannot shrink it.
func (a *Aggregator) CellLoad(cellID uint16) (float64, error) {
	c := a.cells[cellID]
	if c == nil {
		return 0, fmt.Errorf("fusion: unknown cell %d", cellID)
	}
	if !c.seen {
		return 0, nil
	}
	span := c.lastAt - c.firstAt
	if span <= 0 {
		span = c.tti // a single active slot: rate over one TTI
	}
	return float64(c.bits) / span.Seconds(), nil
}

// ActiveUEs reports how many UE sessions a cell retains (sessions idle
// past IdleHorizon are evicted) and how many were active within the
// trailing window ending at now.
func (a *Aggregator) ActiveUEs(cellID uint16, now, window time.Duration) (total, recent int, err error) {
	c := a.cells[cellID]
	if c == nil {
		return 0, 0, fmt.Errorf("fusion: unknown cell %d", cellID)
	}
	for _, u := range c.ues {
		total++
		if u.lastSeen >= now-window {
			recent++
		}
	}
	return total, recent, nil
}
