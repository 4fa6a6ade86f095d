package ran

import (
	"fmt"
	"math/rand"
	"sort"

	"nrscope/internal/channel"
	"nrscope/internal/dci"
	"nrscope/internal/harq"
	"nrscope/internal/pdcch"
	"nrscope/internal/pdsch"
	"nrscope/internal/phy"
	"nrscope/internal/pucch"
	"nrscope/internal/rrc"
	"nrscope/internal/sched"
	"nrscope/internal/traffic"
)

// firstCRNTI is where C-RNTI assignment starts (srsRAN begins at 0x4601),
// keeping C-RNTIs disjoint from the RA-RNTI range RARNTI() produces.
const firstCRNTI = 0x4601

// GNB is the simulated 5G SA base station.
type GNB struct {
	cfg   CellConfig
	codec *pdcch.Codec
	rng   *rand.Rand

	dlSched sched.Scheduler
	ulSched sched.Scheduler

	slotIdx int
	ues     map[uint16]*UE
	order   []uint16 // stable iteration order

	pop       *Population
	popRNG    *rand.Rand
	nextRNTI  uint16
	ueSeed    int64
	maxSlots  int // ledger horizon
	sib1Bytes []byte
	setupByts []byte
	ueSS      phy.SearchSpace

	// per-slot scratch, reset in Step.
	busyCCE    []bool
	ctrlPRB    int
	out        *SlotOutput
	grid       *phy.Grid
	gridBufs   [2]*phy.Grid // double buffer; see Step's doc comment
	ulGridBufs [2]*phy.Grid
}

// NewGNB builds a gNB for the cell, with a ledger horizon of maxSlots
// TTIs (bounds memory for delivered-byte ground truth).
func NewGNB(cfg CellConfig, maxSlots int) (*GNB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Setup.CORESET.StartPRB != cfg.Coreset0.StartPRB ||
		cfg.Setup.CORESET.NumPRB != cfg.Coreset0.NumPRB ||
		cfg.Setup.CORESET.Duration != cfg.Coreset0.Duration ||
		cfg.Setup.CORESET.StartSym != cfg.Coreset0.StartSym {
		return nil, fmt.Errorf("ran: UE CORESET must share CORESET0's control region")
	}
	if maxSlots < 1 {
		return nil, fmt.Errorf("ran: maxSlots = %d", maxSlots)
	}
	sib1, err := cfg.SIB1().Encode()
	if err != nil {
		return nil, err
	}
	setup, err := cfg.Setup.Encode()
	if err != nil {
		return nil, err
	}
	return &GNB{
		cfg:       cfg,
		codec:     pdcch.New(cfg.CellID),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		dlSched:   sched.NewRoundRobin(),
		ulSched:   sched.NewRoundRobin(),
		ues:       make(map[uint16]*UE),
		nextRNTI:  firstCRNTI,
		ueSeed:    cfg.Seed * 7919,
		maxSlots:  maxSlots,
		sib1Bytes: sib1,
		setupByts: setup,
		ueSS:      cfg.ueSearchSpace(),
		busyCCE:   make([]bool, cfg.Coreset0.NumCCE()),
	}, nil
}

// UseSchedulers swaps the MAC schedulers (default round-robin).
func (g *GNB) UseSchedulers(dl, ul sched.Scheduler) {
	g.dlSched, g.ulSched = dl, ul
}

// SetPopulation enables the UE churn process.
func (g *GNB) SetPopulation(p Population) {
	g.pop = &p
	g.popRNG = rand.New(rand.NewSource(g.cfg.Seed ^ 0xBEEF))
}

// Config returns the cell configuration.
func (g *GNB) Config() CellConfig { return g.cfg }

// SlotIdx returns the absolute TTI counter.
func (g *GNB) SlotIdx() int { return g.slotIdx }

// UE returns the state of an attached UE (nil if unknown).
func (g *GNB) UE(rnti uint16) *UE { return g.ues[rnti] }

// ConnectedRNTIs lists the RRC-connected UEs.
func (g *GNB) ConnectedRNTIs() []uint16 {
	var out []uint16
	for _, rnti := range g.order {
		if u := g.ues[rnti]; u != nil && u.Connected() {
			out = append(out, rnti)
		}
	}
	return out
}

// AddUE admits a UE that starts its RACH at the next PRACH occasion.
// sessionSlots < 0 means the UE never departs. factory may be nil for
// the cell default. It returns the UE's (future) C-RNTI.
func (g *GNB) AddUE(factory UEFactory, sessionSlots int) uint16 {
	if factory == nil {
		factory = DefaultUEFactory(g.cfg)
	}
	rnti := g.allocateRNTI()
	g.ueSeed++
	dl, ul, ch := factory(rnti, g.ueSeed)
	depart := -1
	if sessionSlots >= 0 {
		depart = g.slotIdx + sessionSlots
	}
	u := &UE{
		RNTI:       rnti,
		ch:         ch,
		dlGen:      dl,
		ulGen:      ul,
		harqDL:     harq.NewEntity(),
		harqUL:     harq.NewEntity(),
		inflight:   make(map[int]*inflightTB),
		retxDue:    make(map[int][]sched.RetxRequest),
		Ledger:     traffic.NewLedger(g.maxSlots, g.cfg.TTI()),
		state:      stateWaitPRACH,
		departSlot: depart,
	}
	g.ues[rnti] = u
	g.order = append(g.order, rnti)
	return rnti
}

func (g *GNB) allocateRNTI() uint16 {
	for {
		r := g.nextRNTI
		g.nextRNTI++
		if g.nextRNTI > dci.MaxCRNTI {
			g.nextRNTI = firstCRNTI
		}
		if _, used := g.ues[r]; !used {
			return r
		}
	}
}

// ref converts the absolute slot counter to a frame-relative reference.
func (g *GNB) ref() phy.SlotRef {
	spf := g.cfg.Mu.SlotsPerFrame()
	return phy.SlotRef{SFN: (g.slotIdx / spf) % phy.MaxSFN, Slot: g.slotIdx % spf}
}

// Step advances the cell by one TTI and returns its output.
//
// Grid lifetime: to keep the per-slot allocation cost flat, grids are
// drawn from a two-slot double buffer — the returned Grid stays valid
// until the second-following Step. Callers that queue slots (rather
// than processing or cloning them immediately) must Clone the grid.
func (g *GNB) Step() *SlotOutput {
	out := &SlotOutput{Ref: g.ref(), SlotIdx: g.slotIdx}
	g.out = out

	g.stepPopulation()
	g.stepUEs()

	dir := g.cfg.TDD.Direction(g.slotIdx)
	if dir != phy.SlotDownlink || !g.hasULSlots() {
		// Uplink or special slots (TDD), or any slot on the paired FDD
		// uplink carrier, carry PUCCH.
		g.stepUplinkControl()
	}
	if dir == phy.SlotUplink {
		g.stepRACHUplink()
		g.stepDepartures()
		g.slotIdx++
		g.out = nil
		return out
	}
	if !g.hasULSlots() {
		// FDD: PRACH/PUSCH live on the paired uplink carrier, available
		// in every slot.
		g.stepRACHUplink()
	}

	buf := &g.gridBufs[g.slotIdx%2]
	if *buf == nil {
		*buf = phy.NewGrid(g.cfg.CarrierPRBs)
	} else {
		(*buf).Clear()
	}
	g.grid = *buf
	out.Grid = g.grid
	for i := range g.busyCCE {
		g.busyCCE[i] = false
	}
	g.ctrlPRB = 0

	pbchSlot := out.Ref.Slot == 1
	if pbchSlot {
		g.broadcastMIB()
		// Keep control PDSCH clear of the SSB region.
		g.ctrlPRB = pdsch.PBCHStartPRB + pdsch.PBCHNumPRB
	}
	if g.slotIdx%g.cfg.SIB1PeriodSlots == 0 {
		g.broadcastSIB1()
	}
	g.stepRACHDownlink()

	dataStart := g.ctrlPRB
	if pbchSlot && dataStart < pdsch.PBCHStartPRB+pdsch.PBCHNumPRB {
		dataStart = pdsch.PBCHStartPRB + pdsch.PBCHNumPRB
	}
	if dir == phy.SlotDownlink {
		g.scheduleDownlink(dataStart)
	}
	g.scheduleUplinkGrants()

	g.stepDepartures()
	g.slotIdx++
	g.out = nil
	g.grid = nil
	return out
}

// stepUplinkControl lets connected UEs transmit pending UCI (scheduling
// requests, CQI reports, HARQ feedback) on their PUCCH resources of the
// uplink grid — the traffic the paper's §7 "UCI decoding" future-work
// item targets.
func (g *GNB) stepUplinkControl() {
	var grid *phy.Grid
	for _, rnti := range g.order {
		u := g.ues[rnti]
		if u == nil || !u.Connected() {
			continue
		}
		uci := pucch.UCI{CQI: u.cqi}
		send := false
		if u.cqiDue {
			send = true
			u.cqiDue = false
		}
		if u.ulQueueBits > 0 {
			uci.SR = true
			send = true
		}
		for i, pa := range u.pendingAcks {
			if pa.due <= g.slotIdx {
				uci.HasAck = true
				uci.AckID = pa.harqID
				uci.Ack = pa.ack
				u.pendingAcks = append(u.pendingAcks[:i], u.pendingAcks[i+1:]...)
				send = true
				break
			}
		}
		if !send {
			continue
		}
		if grid == nil {
			buf := &g.ulGridBufs[g.slotIdx%2]
			if *buf == nil {
				*buf = phy.NewGrid(g.cfg.CarrierPRBs)
			} else {
				(*buf).Clear()
			}
			grid = *buf
			g.out.ULGrid = grid
		}
		if err := pucch.Encode(grid, uci, rnti, g.cfg.CellID); err != nil {
			continue
		}
		g.out.UCIGT = append(g.out.UCIGT, UCIGT{Slot: g.out.Ref, SlotIdx: g.slotIdx, RNTI: rnti, UCI: uci})
	}
}

// stepPopulation samples arrivals from the churn process.
func (g *GNB) stepPopulation() {
	if g.pop == nil {
		return
	}
	connected := 0
	for _, u := range g.ues {
		if u.state != stateDeparted {
			connected++
		}
	}
	n := g.pop.arrivalsThisSlot(g.popRNG, g.cfg.TTI())
	for i := 0; i < n && connected < g.pop.MaxUEs; i++ {
		session := g.pop.sampleSessionSlots(g.popRNG, g.cfg.TTI())
		rnti := g.AddUE(nil, session)
		connected++
		g.out.Events = append(g.out.Events, Event{Kind: EventArrived, RNTI: rnti, Slot: g.out.Ref})
	}
}

// stepUEs advances channels and traffic for everyone.
func (g *GNB) stepUEs() {
	for _, rnti := range g.order {
		u := g.ues[rnti]
		if u == nil || u.state == stateDeparted {
			continue
		}
		u.stepChannel()
		if u.Connected() {
			u.pullTraffic()
		}
	}
}

// stepDepartures removes UEs whose session ended.
func (g *GNB) stepDepartures() {
	for _, rnti := range g.order {
		u := g.ues[rnti]
		if u == nil || u.state == stateDeparted {
			continue
		}
		if u.departSlot >= 0 && g.slotIdx >= u.departSlot {
			u.state = stateDeparted
			if pf, ok := g.dlSched.(*sched.ProportionalFair); ok {
				pf.Forget(rnti)
			}
			g.out.Events = append(g.out.Events, Event{Kind: EventDeparted, RNTI: rnti, Slot: g.out.Ref})
		}
	}
}

// stepRACHUplink advances MSG1/MSG3 stages (which happen on PUSCH/PRACH,
// invisible on the downlink grid).
func (g *GNB) stepRACHUplink() {
	prachOccasion := g.slotIdx%g.cfg.RACHPeriodSlots == g.cfg.RACHPeriodSlots-1
	for _, rnti := range g.order {
		u := g.ues[rnti]
		if u == nil {
			continue
		}
		switch u.state {
		case stateWaitPRACH:
			if prachOccasion {
				u.state = stateWaitMSG2
				u.msgDue = g.slotIdx + 2
			}
		case stateWaitMSG3:
			if g.slotIdx >= u.msgDue {
				u.state = stateWaitMSG4
				u.msgDue = g.slotIdx + 2
			}
		}
	}
}

// stepRACHDownlink transmits MSG2 (RAR) and MSG4 (RRC Setup) when due.
func (g *GNB) stepRACHDownlink() {
	for _, rnti := range g.order {
		u := g.ues[rnti]
		if u == nil {
			continue
		}
		switch u.state {
		case stateWaitMSG2:
			if g.slotIdx >= u.msgDue {
				rar := rrc.RAR{TCRNTI: u.RNTI, TimingAdvance: 11, MSG3SlotDelta: 4}
				data, err := rar.Encode()
				if err != nil {
					continue
				}
				raRNTI := dci.RARNTI(g.slotIdx)
				if g.sendControlPDSCH(raRNTI, data, false) {
					u.state = stateWaitMSG3
					u.msgDue = g.slotIdx + 4
				}
			}
		case stateWaitMSG4:
			if g.slotIdx >= u.msgDue {
				if g.sendControlPDSCH(u.RNTI, g.setupByts, true) {
					u.state = stateConnected
					g.out.Events = append(g.out.Events, Event{Kind: EventConnected, RNTI: u.RNTI, Slot: g.out.Ref})
				}
			}
		}
	}
}

// broadcastMIB places the PBCH.
func (g *GNB) broadcastMIB() {
	mib := rrc.MIB{
		SFN:              g.out.Ref.SFN,
		Mu:               g.cfg.Mu,
		CellID:           g.cfg.CellID,
		Coreset0StartPRB: g.cfg.Coreset0.StartPRB,
		Coreset0NumPRB:   g.cfg.Coreset0.NumPRB,
		Coreset0Duration: g.cfg.Coreset0.Duration,
	}
	data, err := mib.Encode()
	if err != nil {
		return
	}
	_ = pdsch.EncodePBCH(g.grid, data, g.cfg.CellID)
}

// broadcastSIB1 sends the SIB1 DCI + PDSCH.
func (g *GNB) broadcastSIB1() {
	g.sendControlPDSCH(dci.SIRNTI, g.sib1Bytes, false)
}

// sendControlPDSCH emits a fallback (format 1_0) DCI in the common
// search space plus its PDSCH payload, allocating PRBs from the control
// region at the front of the carrier. Returns false when the PDCCH or
// PRBs are exhausted this slot (the message is retried next slot).
func (g *GNB) sendControlPDSCH(rnti uint16, payload []byte, msg4 bool) bool {
	link := controlLink()
	want := (len(payload) + macOverheadBytes) * 8
	// Common PDSCH lives within the initial BWP (the CORESET 0 span).
	maxPRB := g.cfg.Coreset0.NumPRB - g.ctrlPRB
	if maxPRB < 1 {
		return false
	}
	nprb, tbs := sched.Size(want+24, g.cfg.ControlMCS, maxPRB, dataRegionRow, link)
	if nprb == 0 || tbs < want {
		return false
	}
	commonCfg := g.cfg.CommonDCIConfig()
	riv, err := phy.EncodeRIV(commonCfg.BWPPRBs, g.ctrlPRB, nprb)
	if err != nil {
		return false
	}
	d := dci.DCI{
		Format:    dci.Format10,
		FreqAlloc: riv,
		TimeAlloc: dataRegionRow,
		MCS:       g.cfg.ControlMCS,
	}
	cand, ok := g.placeCommonDCI(d, rnti)
	if !ok {
		return false
	}
	grant, err := dci.ToGrant(d, rnti, commonCfg, link)
	if err != nil {
		return false
	}
	if err := pdsch.Encode(g.grid, grant, payload, g.cfg.CellID); err != nil {
		return false
	}
	g.ctrlPRB += nprb
	g.out.GT = append(g.out.GT, GTRecord{
		Slot: g.out.Ref, SlotIdx: g.slotIdx, RNTI: rnti, Grant: grant,
		AggLevel: cand.AggLevel, StartCCE: cand.StartCCE,
		Common: true, MSG4: msg4,
	})
	return true
}

// placeCommonDCI places a fallback DCI in the common search space,
// packed over the initial BWP.
func (g *GNB) placeCommonDCI(d dci.DCI, rnti uint16) (phy.Candidate, bool) {
	return g.placeDCI(d, rnti, g.cfg.CommonSS, 4, g.cfg.CommonDCIConfig())
}

// placeDCI packs, finds a collision-free candidate at (or near) the
// preferred aggregation level, and encodes the PDCCH. It returns the
// candidate used.
func (g *GNB) placeDCI(d dci.DCI, rnti uint16, ss phy.SearchSpace, prefAL int, cfg dci.Config) (phy.Candidate, bool) {
	payload, err := dci.Pack(d, cfg)
	if err != nil {
		return phy.Candidate{}, false
	}
	cs := g.cfg.Coreset0
	if ss.Type == phy.UESearchSpace {
		cs = g.cfg.Setup.CORESET
	}
	for _, al := range alPreferenceOrder(prefAL) {
		m := ss.Candidates[al]
		for i := 0; i < m; i++ {
			cce, ok := phy.CandidateCCE(ss, cs, rnti, g.out.Ref.Slot, al, i)
			if !ok {
				continue
			}
			if g.cceFree(cce, al) {
				cand := phy.Candidate{AggLevel: al, Index: i, StartCCE: cce}
				if err := g.codec.Encode(g.grid, cs, cand, g.out.Ref.Slot, payload, rnti); err != nil {
					return phy.Candidate{}, false
				}
				g.markCCE(cce, al)
				return cand, true
			}
		}
	}
	return phy.Candidate{}, false
}

// alPreferenceOrder yields aggregation levels starting at pref, then
// larger (more robust), then smaller.
func alPreferenceOrder(pref int) []int {
	var after, before []int
	for _, al := range phy.AggregationLevels {
		switch {
		case al == pref:
		case al > pref:
			after = append(after, al)
		default:
			before = append(before, al)
		}
	}
	out := []int{pref}
	out = append(out, after...)
	// Smaller levels last, largest-first for robustness.
	for i := len(before) - 1; i >= 0; i-- {
		out = append(out, before[i])
	}
	return out
}

func (g *GNB) cceFree(start, n int) bool {
	if start+n > len(g.busyCCE) {
		return false
	}
	for i := start; i < start+n; i++ {
		if g.busyCCE[i] {
			return false
		}
	}
	return true
}

func (g *GNB) markCCE(start, n int) {
	for i := start; i < start+n; i++ {
		g.busyCCE[i] = true
	}
}

// alForCQI picks the DCI aggregation level from channel quality: weaker
// UEs get more CCEs, as real link adaptation does.
func alForCQI(cqi int) int {
	switch {
	case cqi >= 12:
		return 1
	case cqi >= 9:
		return 2
	case cqi >= 6:
		return 4
	case cqi >= 3:
		return 8
	default:
		return 16
	}
}

// scheduleDownlink runs the MAC scheduler and transmits data DCIs/PDSCH.
func (g *GNB) scheduleDownlink(dataStart int) {
	region := g.cfg.schedRegion(dataStart)
	if region.NumPRB < 1 {
		return
	}
	var reqs []sched.Request
	for _, rnti := range g.order {
		u := g.ues[rnti]
		if u == nil || !u.Connected() {
			continue
		}
		req := sched.Request{RNTI: rnti, QueueBits: u.dlQueueBits, CQI: u.cqi}
		// UL retransmissions live under negative keys.
		for _, due := range u.dueKeys(true, g.slotIdx) {
			req.Retx = append(req.Retx, u.retxDue[due]...)
			delete(u.retxDue, due)
		}
		if req.QueueBits > 0 || len(req.Retx) > 0 {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) == 0 {
		return
	}
	allocs := g.dlSched.Schedule(g.out.Ref.Slot, reqs, region)
	for _, a := range allocs {
		g.transmitData(a, true)
	}
	g.requeueUnserved(reqs, allocs, true)
}

// requeueUnserved puts retransmission requests the scheduler could not
// fit this TTI back into the due queue; dropping them would leak the
// HARQ process and eventually starve the UE.
func (g *GNB) requeueUnserved(reqs []sched.Request, allocs []sched.Allocation, downlink bool) {
	type rkey struct {
		rnti uint16
		harq int
	}
	served := make(map[rkey]bool, len(allocs))
	for _, a := range allocs {
		if a.IsRetx {
			served[rkey{a.RNTI, a.HARQID}] = true
		}
	}
	for _, req := range reqs {
		u := g.ues[req.RNTI]
		if u == nil {
			continue
		}
		for _, rx := range req.Retx {
			if served[rkey{req.RNTI, rx.HARQID}] {
				continue
			}
			if downlink {
				u.retxDue[g.slotIdx+1] = append(u.retxDue[g.slotIdx+1], rx)
			} else {
				u.addULRetx(g.slotIdx+1, rx)
			}
		}
	}
}

// scheduleUplinkGrants issues PUSCH grants (uplink DCIs) from DL-capable
// slots. PUSCH PRBs live on the uplink carrier/slots and do not occupy
// the downlink grid; only the DCI does.
func (g *GNB) scheduleUplinkGrants() {
	region := sched.Region{StartPRB: 0, NumPRB: g.cfg.CarrierPRBs, TimeRow: dataRegionRow, Link: g.cfg.Setup.LinkConfig()}
	var reqs []sched.Request
	for _, rnti := range g.order {
		u := g.ues[rnti]
		if u == nil || !u.Connected() {
			continue
		}
		req := sched.Request{RNTI: rnti, QueueBits: u.ulQueueBits, CQI: u.cqi}
		for _, key := range u.dueKeys(false, g.slotIdx) {
			req.Retx = append(req.Retx, u.retxDue[key]...)
			delete(u.retxDue, key)
		}
		if req.QueueBits > 0 || len(req.Retx) > 0 {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) == 0 {
		return
	}
	allocs := g.ulSched.Schedule(g.out.Ref.Slot, reqs, region)
	for _, a := range allocs {
		g.transmitData(a, false)
	}
	g.requeueUnserved(reqs, allocs, false)
}

// transmitData sends one scheduled transport block: DCI in the UE search
// space, PDSCH fill (downlink), HARQ bookkeeping and the delivery draw.
func (g *GNB) transmitData(a sched.Allocation, downlink bool) {
	u := g.ues[a.RNTI]
	if u == nil || !u.Connected() {
		return
	}
	entity := u.harqUL
	if downlink {
		entity = u.harqDL
	}

	var harqID int
	var ndi uint8
	var tb *inflightTB
	if a.IsRetx {
		harqID = a.HARQID
		var err error
		ndi, _, err = entity.Retransmit(harqID)
		if err != nil {
			return
		}
		tb = u.inflight[inflightKey(harqID, downlink)]
		if tb == nil {
			return
		}
		tb.attempts++
	} else {
		var ok bool
		harqID, ndi, ok = entity.Allocate(a.TBS)
		if !ok {
			return // all HARQ processes busy; queue drains later
		}
		payloadBytes := a.TBS/8 - macOverheadBytes
		queueBytes := u.queueBits(downlink) / 8
		if payloadBytes > queueBytes {
			payloadBytes = queueBytes
		}
		if payloadBytes < 0 {
			payloadBytes = 0
		}
		tb = &inflightTB{
			tbs: a.TBS, payloadBytes: payloadBytes, mcsIdx: a.MCS,
			nprb: a.NumPRB, ndi: ndi, attempts: 1, downlink: downlink,
		}
		u.inflight[inflightKey(harqID, downlink)] = tb
		u.drainQueue(downlink, payloadBytes*8)
	}

	d := g.buildDataDCI(a, downlink, harqID, ndi, tb.attempts)
	cand, placed := g.placeDCI(d, a.RNTI, g.ueSS, alForCQI(u.cqi), g.cfg.DCIConfig())
	if !placed {
		// PDCCH blocked: roll the transmission back.
		g.rollback(u, entity, harqID, tb, a, downlink)
		return
	}
	link := g.cfg.Setup.LinkConfig()
	grant, err := dci.ToGrant(d, a.RNTI, g.cfg.DCIConfig(), link)
	if err != nil {
		g.rollback(u, entity, harqID, tb, a, downlink)
		return
	}

	g.out.GT = append(g.out.GT, GTRecord{
		Slot: g.out.Ref, SlotIdx: g.slotIdx, RNTI: a.RNTI, Grant: grant,
		AggLevel: cand.AggLevel, StartCCE: cand.StartCCE, IsRetx: a.IsRetx,
		DeliveredBytes: g.resolveDelivery(u, entity, harqID, tb, downlink),
	})
}

// resolveDelivery draws the HARQ outcome for the transmission that was
// just placed and returns the delivered payload bytes (zero on failure).
func (g *GNB) resolveDelivery(u *UE, entity *harq.Entity, harqID int, tb *inflightTB, downlink bool) int {
	e, err := g.cfg.Setup.MCSTable.Lookup(tb.mcsIdx)
	if err != nil {
		return 0
	}
	eff := e.R() * float64(e.Qm)
	// The delivery draw uses the slot's true SNR; the scheduler only saw
	// the quantised CQI, so deep fades beat the link adaptation and
	// trigger HARQ — the paper's Fig. 15 mechanism.
	bler := channel.BLER(eff, u.lastSNR)
	if g.rng.Float64() >= bler {
		// Success: deliver and free the process.
		if downlink {
			u.Ledger.Record(g.slotIdx, tb.payloadBytes)
			u.pendingAcks = append(u.pendingAcks, pendingAck{harqID: harqID, ack: true, due: g.slotIdx + 4})
		}
		_ = entity.Ack(harqID)
		delete(u.inflight, inflightKey(harqID, downlink))
		return tb.payloadBytes
	}
	// Failure: NACK on PUCCH, then retransmit or give up.
	if downlink {
		u.pendingAcks = append(u.pendingAcks, pendingAck{harqID: harqID, ack: false, due: g.slotIdx + 4})
	}
	if tb.attempts >= g.cfg.MaxHARQRetx {
		_ = entity.Ack(harqID)
		delete(u.inflight, inflightKey(harqID, downlink))
		return 0
	}
	due := g.slotIdx + 4 // HARQ RTT
	req := sched.RetxRequest{HARQID: harqID, TBS: tb.tbs, NDI: tb.ndi, MCS: tb.mcsIdx, NPRB: tb.nprb}
	if downlink {
		u.retxDue[due] = append(u.retxDue[due], req)
	} else {
		u.addULRetx(due, req)
	}
	return 0
}

// rollback undoes HARQ state after a blocked PDCCH.
func (g *GNB) rollback(u *UE, entity *harq.Entity, harqID int, tb *inflightTB, a sched.Allocation, downlink bool) {
	if a.IsRetx {
		// Try again next slot.
		req := sched.RetxRequest{HARQID: harqID, TBS: tb.tbs, NDI: tb.ndi, MCS: tb.mcsIdx, NPRB: tb.nprb}
		tb.attempts--
		if downlink {
			u.retxDue[g.slotIdx+1] = append(u.retxDue[g.slotIdx+1], req)
		} else {
			u.addULRetx(g.slotIdx+1, req)
		}
		return
	}
	_ = entity.Cancel(harqID)
	delete(u.inflight, inflightKey(harqID, downlink))
	u.refillQueue(downlink, tb.payloadBytes*8)
}

// buildDataDCI assembles the DCI for a data allocation.
func (g *GNB) buildDataDCI(a sched.Allocation, downlink bool, harqID int, ndi uint8, attempts int) dci.DCI {
	riv, _ := phy.EncodeRIV(g.cfg.CarrierPRBs, a.StartPRB, a.NumPRB)
	rv := attempts - 1
	if rv > 3 {
		rv = 3
	}
	format := dci.Format11
	if !downlink {
		format = dci.Format01
	}
	if !g.cfg.Setup.NonFallback {
		format = dci.Format10
		if !downlink {
			format = dci.Format00
		}
	}
	return dci.DCI{
		Format:    format,
		FreqAlloc: riv,
		TimeAlloc: a.TimeRow,
		MCS:       a.MCS,
		NDI:       ndi,
		RV:        rv,
		HARQID:    harqID,
		DAI:       attempts % 4,
		TPC:       1,
	}
}

// --- small UE helpers kept here to stay close to their use ---

func inflightKey(harqID int, downlink bool) int {
	if downlink {
		return harqID
	}
	return 100 + harqID
}

func (u *UE) queueBits(downlink bool) int {
	if downlink {
		return u.dlQueueBits
	}
	return u.ulQueueBits
}

func (u *UE) drainQueue(downlink bool, bits int) {
	if downlink {
		u.dlQueueBits -= bits
		if u.dlQueueBits < 0 {
			u.dlQueueBits = 0
		}
	} else {
		u.ulQueueBits -= bits
		if u.ulQueueBits < 0 {
			u.ulQueueBits = 0
		}
	}
}

func (u *UE) refillQueue(downlink bool, bits int) {
	if downlink {
		u.dlQueueBits += bits
	} else {
		u.ulQueueBits += bits
	}
}

// hasULSlots reports whether the TDD pattern contains uplink slots
// (false for FDD downlink carriers, which pair with an always-on uplink).
func (g *GNB) hasULSlots() bool {
	for i := 0; i < g.cfg.TDD.Len(); i++ {
		if g.cfg.TDD.Direction(i) == phy.SlotUplink {
			return true
		}
	}
	return false
}

// addULRetx stores UL retransmission queues under negative keys to keep
// them apart from DL ones.
func (u *UE) addULRetx(due int, r sched.RetxRequest) {
	u.retxDue[-due] = append(u.retxDue[-due], r)
}

// dueKeys returns, in deterministic (ascending due-slot) order, the map
// keys of retransmissions due at slotIdx for the given direction.
func (u *UE) dueKeys(downlink bool, slotIdx int) []int {
	var keys []int
	for k := range u.retxDue {
		if downlink && k >= 0 && k <= slotIdx {
			keys = append(keys, k)
		}
		if !downlink && k < 0 && -k <= slotIdx {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	return keys
}
