// Package core is NR-Scope itself — the paper's primary contribution: a
// passive 5G Standalone telemetry engine that, from received slot grids
// alone, (1) acquires the cell configuration from MIB and SIB1, (2)
// tracks UE associations by recovering C-RNTIs from MSG 4 DCIs via the
// CRC-XOR trick, and (3) blind-decodes every PDCCH candidate of every
// known UE in every TTI, translating DCIs into grants, transport block
// sizes, throughput, HARQ retransmissions and spare-capacity telemetry.
//
// A Scope decodes exactly one slot at a time, on one goroutine:
// ProcessSlot runs the paper's Fig. 4 SIB, RACH and DCI tasks, reading
// the acquired state in place, then merges the findings. The decode
// never writes the state and merge is its only writer, so the paper's
// state copy for worker threads is not needed. One cell's slots are
// serial by design (slot n+1's decode depends on the MIB, SIB1 and MSG4
// state merged from slot n); DecodePool (pool.go) is the worker pool,
// running many cells' scopes concurrently, each owned by one worker at
// a time.
package core

import (
	"fmt"
	"slices"
	"time"

	"nrscope/internal/dci"
	"nrscope/internal/harq"
	"nrscope/internal/mcs"
	"nrscope/internal/pdcch"
	"nrscope/internal/phy"
	"nrscope/internal/pucch"
	"nrscope/internal/radio"
	"nrscope/internal/rrc"
	"nrscope/internal/telemetry"
)

// throughputWindow is the sliding window of the bitrate estimator.
const throughputWindow = 100 * time.Millisecond

// Option configures a Scope.
type Option func(*Scope)

// WithVerifyMSG4 controls whether a new-UE candidate's RRC Setup PDSCH
// is decoded and CRC-verified before admitting the UE. The paper's
// shortcut (§3.1.2) skips this after the first UE; verification costs
// 1-2 ms per RACH but rejects ghost UEs. Default: verify.
func WithVerifyMSG4(v bool) Option {
	return func(s *Scope) { s.verifyMSG4 = v }
}

// WithIdleHorizon drops UEs unseen for the given wall-clock duration
// (they left the RAN; their C-RNTI may be reassigned). Once the
// numerology is known the horizon converts to a slot count, so live
// scope, fusion, and history share one eviction knob. Default 20000
// slots.
func WithIdleHorizon(d time.Duration) Option {
	return func(s *Scope) {
		if d > 0 {
			s.idleHorizon = d
		}
	}
}

// WithDMRSGate toggles the DMRS-correlation occupancy gate that lets the
// blind decoder skip candidates with no transmission. On by default;
// turning it off decodes every candidate of every UE in every slot (the
// brute-force baseline the gate is measured against).
func WithDMRSGate(on bool) Option {
	return func(s *Scope) { s.dmrsGate = on }
}

// WithManualCellInfo preloads the cell configuration instead of decoding
// it off the air — the paper's §3.1.1 NSA mode, where the 5G cell's
// system information is delivered encrypted via the LTE anchor and
// NR-Scope "requires manual input of 5G cell information". The scope
// skips MIB/SIB1 acquisition and goes straight to UE tracking. Kept:
// no NSA input exists yet, so only tests that skip acquisition set it.
func WithManualCellInfo(mib rrc.MIB, sib1 rrc.SIB1) Option {
	return func(s *Scope) {
		m, s1 := mib, sib1
		s.mib = &m
		s.coreset = m.Coreset0()
		s.commonSS = phy.SearchSpace{ID: 0, Type: phy.CommonSearchSpace, Candidates: phy.DefaultCommonCandidates()}
		s.commonCfg = dci.Config{BWPPRBs: s.coreset.NumPRB, TimeAllocRows: len(phy.DefaultTimeAllocTable), MaxHARQ: 16}
		s.sib1 = &s1
		s.dataCfg = dci.Config{BWPPRBs: s1.CarrierPRBs, TimeAllocRows: s1.TimeAllocRows, MaxHARQ: 16}
		s.estimator = telemetry.NewWindowEstimator(throughputWindow, m.Mu.SlotDuration())
	}
}

// UETrack is the scope's per-UE state.
type UETrack struct {
	RNTI      uint16
	FirstSeen int // slot index of the MSG4 discovery
	LastSeen  int // slot index of the last decoded DCI

	DL *harq.Tracker
	UL *harq.Tracker

	lastMCS    mcs.Entry
	haveMCS    bool
	lastLayers int

	uplink pucch.Resource // the UE's PUCCH resource, fixed for its session
}

// UEActivity summarises a UE session after it aged out (Fig. 10 data).
type UEActivity struct {
	RNTI      uint16
	FirstSeen int
	LastSeen  int
}

// ActiveSlots returns the session length in slots.
func (a UEActivity) ActiveSlots() int { return a.LastSeen - a.FirstSeen + 1 }

// SlotResult is the outcome of processing one capture.
type SlotResult struct {
	SlotIdx int
	Ref     phy.SlotRef

	MIBAcquired  bool // MIB decoded in this slot
	SIB1Acquired bool // SIB1 decoded in this slot
	NewUEs       []uint16

	Records []telemetry.Record
	Spare   *telemetry.SpareCapacity

	// Elapsed is the signal-processing + DCI-decoding time of the slot
	// (the quantity of the paper's Fig. 12).
	Elapsed time.Duration
}

// Scope is the NR-Scope telemetry engine for one cell.
type Scope struct {
	cellID uint16
	codec  *pdcch.Codec

	verifyMSG4      bool
	dmrsGate        bool
	inactivitySlots int
	idleHorizon     time.Duration // optional wall-clock form of the above

	// Acquired cell state.
	mib       *rrc.MIB
	sib1      *rrc.SIB1
	setup     *rrc.Setup
	coreset   phy.CORESET // CORESET 0, from the MIB
	ueCoreset phy.CORESET // UE CORESET, from the RRC Setup (MSG 4)
	commonSS  phy.SearchSpace
	ueSS      phy.SearchSpace
	commonCfg dci.Config
	dataCfg   dci.Config
	link      dci.LinkConfig

	// The tracked UEs in discovery order (the order a slot's records are
	// emitted in), and each one's position in tracks by C-RNTI.
	tracks    []*UETrack
	byRNTI    map[uint16]int
	estimator *telemetry.WindowEstimator
	departed  []UEActivity
	lastPurge int

	// Per-slot state, owned because a Scope decodes one slot at a time:
	// the result of the slot in flight, the decode working memory
	// (plans, masks, the position arena), and spareCapacity's UE list.
	res     decodeResult
	scratch slotScratch
	spare   []telemetry.SpareUE
	uplink  pucch.Workspace // ProcessUplinkSlot's UCI decode scratch
}

// New creates a scope tuned to the physical cell id (obtained from the
// PSS/SSS during cell search, which the symbol-level simulation
// abstracts away — DESIGN.md §2).
func New(cellID uint16, opts ...Option) *Scope {
	s := &Scope{
		cellID:          cellID,
		codec:           pdcch.New(cellID),
		verifyMSG4:      true,
		dmrsGate:        true,
		inactivitySlots: 20000,
		byRNTI:          make(map[uint16]int),
	}
	for _, o := range opts {
		o(s)
	}
	if s.mib != nil {
		s.applyIdleHorizon()
	}
	return s
}

// applyIdleHorizon converts the wall-clock eviction horizon into slots
// once the numerology (and so the TTI) is known.
func (s *Scope) applyIdleHorizon() {
	if s.idleHorizon <= 0 || s.mib == nil {
		return
	}
	if slots := int(s.idleHorizon / s.mib.Mu.SlotDuration()); slots > 0 {
		s.inactivitySlots = slots
	}
}

// The four accessors below are kept as the public facade's (nrscope.Scope)
// view of cell acquisition; inside this module only tests call them.

// CellAcquired reports whether MIB and SIB1 are both decoded.
func (s *Scope) CellAcquired() bool { return s.mib != nil && s.sib1 != nil }

// SetupKnown reports whether the UE-dedicated configuration was learned.
func (s *Scope) SetupKnown() bool { return s.setup != nil }

// MIB returns the acquired MIB (nil before acquisition).
func (s *Scope) MIB() *rrc.MIB { return s.mib }

// SIB1 returns the acquired SIB1 (nil before acquisition).
func (s *Scope) SIB1() *rrc.SIB1 { return s.sib1 }

// KnownUEs returns the currently tracked C-RNTIs.
func (s *Scope) KnownUEs() []uint16 {
	out := make([]uint16, len(s.tracks))
	for i, track := range s.tracks {
		out[i] = track.RNTI
	}
	return out
}

// Track returns a UE's tracking state (nil if unknown).
func (s *Scope) Track(rnti uint16) *UETrack {
	if i, ok := s.byRNTI[rnti]; ok {
		return s.tracks[i]
	}
	return nil
}

// addTrack appends a newly discovered UE to the tracked set.
func (s *Scope) addTrack(track *UETrack) {
	s.byRNTI[track.RNTI] = len(s.tracks)
	s.tracks = append(s.tracks, track)
}

// DepartedUEs returns the sessions that aged out so far (plus, for
// convenience, nothing else — live sessions are in KnownUEs).
func (s *Scope) DepartedUEs() []UEActivity {
	out := make([]UEActivity, len(s.departed))
	copy(out, s.departed)
	return out
}

// Bitrate returns the current windowed throughput estimate in bits/s for
// one direction of a UE (paper §3.2.2), evaluated at nowSlot.
func (s *Scope) Bitrate(rnti uint16, downlink bool, nowSlot int) float64 {
	if s.estimator == nil {
		return 0
	}
	return s.estimator.Bitrate(rnti, downlink, nowSlot)
}

// ProcessSlot runs the full per-TTI processing synchronously: decode
// against the current state, then merge the findings into the state.
func (s *Scope) ProcessSlot(cap *radio.Capture) *SlotResult {
	return s.merge(s.decodeSlot(cap))
}

// merge applies a decode result to the scope state, in slot order.
func (s *Scope) merge(res *decodeResult) *SlotResult {
	out := &SlotResult{SlotIdx: res.slotIdx, Ref: res.ref, Elapsed: res.elapsed}
	if n := len(res.newUEs) + len(res.common) + len(res.data); n > 0 {
		out.Records = make([]telemetry.Record, 0, n)
	}

	if res.mib != nil && s.mib == nil {
		s.mib = res.mib
		s.coreset = res.mib.Coreset0()
		s.commonSS = phy.SearchSpace{ID: 0, Type: phy.CommonSearchSpace, Candidates: phy.DefaultCommonCandidates()}
		s.commonCfg = dci.Config{BWPPRBs: s.coreset.NumPRB, TimeAllocRows: len(phy.DefaultTimeAllocTable), MaxHARQ: 16}
		out.MIBAcquired = true
		met.mibAcquired.Inc()
		s.applyIdleHorizon()
	}
	if res.sib1 != nil && s.sib1 == nil {
		s.sib1 = res.sib1
		s.dataCfg = dci.Config{BWPPRBs: res.sib1.CarrierPRBs, TimeAllocRows: res.sib1.TimeAllocRows, MaxHARQ: 16}
		s.estimator = telemetry.NewWindowEstimator(throughputWindow, s.mib.Mu.SlotDuration())
		out.SIB1Acquired = true
		met.sib1Acquired.Inc()
	}
	if res.setup != nil && s.setup == nil {
		s.setup = res.setup
		// "From MSG 4, we also get the CORESET position, DCI aggregation
		// level, and the correct format of DCI" (§3.1.2).
		s.ueCoreset = res.setup.CORESET
		s.ueSS = phy.SearchSpace{ID: res.setup.CORESET.ID, Type: phy.UESearchSpace, Candidates: res.setup.UECandidates}
		s.link = res.setup.LinkConfig()
	}

	// The find lists are ranged by index: their entries are large.
	for i := range res.newUEs {
		nu := &res.newUEs[i]
		if _, known := s.byRNTI[nu.rnti]; known {
			continue
		}
		s.addTrack(&UETrack{
			RNTI: nu.rnti, FirstSeen: res.slotIdx, LastSeen: res.slotIdx,
			DL: harq.NewTracker(), UL: harq.NewTracker(),
			uplink: pucch.NewResource(nu.rnti, s.cellID),
		})
		out.NewUEs = append(out.NewUEs, nu.rnti)
		rec := telemetry.FromGrant(res.slotIdx, res.ref, nu.grant, false)
		rec.NewUE = true
		rec.Common = true
		rec.AggLevel = nu.cand.AggLevel
		rec.StartCCE = nu.cand.StartCCE
		out.Records = append(out.Records, rec)
	}

	for i := range res.common {
		f := &res.common[i]
		rec := telemetry.FromGrant(res.slotIdx, res.ref, f.grant, false)
		rec.Common = true
		rec.AggLevel = f.cand.AggLevel
		rec.StartCCE = f.cand.StartCCE
		out.Records = append(out.Records, rec)
	}

	usedREs := 0
	for i := range res.common {
		usedREs += res.common[i].grant.NRE
	}
	for i := range res.newUEs {
		usedREs += res.newUEs[i].grant.NRE
	}
	for i := range res.data {
		f := &res.data[i]
		// Tracked: the decode ran against this state, and only purge,
		// below, removes UEs.
		track := s.tracks[s.byRNTI[f.rnti]]
		track.LastSeen = res.slotIdx
		tracker := track.UL
		if f.grant.Downlink {
			tracker = track.DL
		}
		retx := tracker.Observe(f.grant.HARQID, f.grant.NDI)
		if f.grant.Downlink {
			if e, err := f.grant.Table.Lookup(f.grant.MCSIndex); err == nil {
				track.lastMCS = e
				track.haveMCS = true
				track.lastLayers = f.grant.Layers
			}
			usedREs += f.grant.NRE
		}
		rec := telemetry.FromGrant(res.slotIdx, res.ref, f.grant, retx)
		rec.AggLevel = f.cand.AggLevel
		rec.StartCCE = f.cand.StartCCE
		if s.estimator != nil {
			s.estimator.Add(rec)
		}
		out.Records = append(out.Records, rec)
	}

	if s.sib1 != nil && res.hadGrid && s.sib1.TDD.HasDownlinkData(res.slotIdx) {
		out.Spare = s.spareCapacity(res.slotIdx, usedREs)
	}

	if s.mib != nil {
		// Stamp slot time in ms on every outgoing record, so history
		// bins and external JSON consumers share one time base.
		ttiMS := s.mib.Mu.SlotDuration().Seconds() * 1e3
		for i := range out.Records {
			out.Records[i].TMs = float64(out.Records[i].SlotIdx) * ttiMS
		}
	}
	s.purgeInactive(res.slotIdx)
	met.uesTracked.Set(int64(len(s.tracks)))
	return out
}

// spareCapacity computes the §5.4.1 fair-share split for this TTI over
// the UEs with a known MCS seen within the estimator window, in tracked
// order. The split retains its UE list, so it gets an exact-size copy of
// the owned buffer the walk fills.
func (s *Scope) spareCapacity(slotIdx, usedREs int) *telemetry.SpareCapacity {
	// Data region: symbols 2..13 across the carrier (the control region
	// and its PDSCH share were accounted as used by their own grants).
	dataSymbols := phy.DefaultTimeAllocTable[0].NumSymbols
	total := s.sib1.CarrierPRBs * phy.SubcarriersPerPRB * dataSymbols
	window := s.estimatorWindowSlots()
	s.spare = s.spare[:0]
	for _, track := range s.tracks {
		if !track.haveMCS || slotIdx-track.LastSeen > window {
			continue
		}
		s.spare = append(s.spare, telemetry.SpareUE{
			RNTI:        track.RNTI,
			UELinkState: telemetry.UELinkState{Entry: track.lastMCS, Layers: track.lastLayers},
		})
	}
	sc := telemetry.ComputeSpare(total, usedREs, slices.Clone(s.spare))
	return &sc
}

func (s *Scope) estimatorWindowSlots() int {
	if s.estimator == nil {
		return 200
	}
	return s.estimator.WindowSlots()
}

// WindowSlots reports the throughput estimator's window length in TTIs.
func (s *Scope) WindowSlots() int { return s.estimatorWindowSlots() }

// purgeInactive ages out silent UEs (they left the RAN; Fig. 10 measures
// exactly these session lengths), keeping the survivors in discovery
// order and re-indexing them as it filters.
func (s *Scope) purgeInactive(slotIdx int) {
	if slotIdx-s.lastPurge < 200 {
		return
	}
	s.lastPurge = slotIdx
	tracks := s.tracks[:0]
	for _, track := range s.tracks {
		if slotIdx-track.LastSeen > s.inactivitySlots {
			s.departed = append(s.departed, UEActivity{RNTI: track.RNTI, FirstSeen: track.FirstSeen, LastSeen: track.LastSeen})
			delete(s.byRNTI, track.RNTI)
			if s.estimator != nil {
				// The C-RNTI may be reassigned; its flow windows must
				// not survive the session (unbounded growth otherwise).
				s.estimator.Remove(track.RNTI)
			}
			continue
		}
		s.byRNTI[track.RNTI] = len(tracks)
		tracks = append(tracks, track)
	}
	clear(s.tracks[len(tracks):]) // release the departed tracks
	s.tracks = tracks
}

// String summarises scope state.
func (s *Scope) String() string {
	return fmt.Sprintf("scope{cell=%d mib=%v sib1=%v setup=%v ues=%d}",
		s.cellID, s.mib != nil, s.sib1 != nil, s.setup != nil, len(s.tracks))
}
