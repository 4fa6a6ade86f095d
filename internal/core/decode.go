package core

import (
	"cmp"
	"slices"
	"time"

	"nrscope/internal/bits"
	"nrscope/internal/dci"
	"nrscope/internal/mcs"
	"nrscope/internal/pdcch"
	"nrscope/internal/pdsch"
	"nrscope/internal/phy"
	"nrscope/internal/radio"
	"nrscope/internal/rrc"
)

// snapshot is the read-only state a decode pass runs against (the
// paper's "state copy" handed from the scheduler to a worker). The Scope
// owns one and rewrites it before every slot (Scope.snapshot).
type snapshot struct {
	mib        *rrc.MIB
	sib1       *rrc.SIB1
	setup      *rrc.Setup
	coreset    phy.CORESET
	ueCoreset  phy.CORESET
	commonSS   phy.SearchSpace
	ueSS       phy.SearchSpace
	commonCfg  dci.Config
	dataCfg    dci.Config
	link       dci.LinkConfig
	ues        *ueIndex
	verifyMSG4 bool
	dmrsGate   bool
}

// ueIndex is the tracked-UE set as a decode pass sees it: the C-RNTIs in
// discovery order (the order a slot's records are emitted in) and the
// reverse map recovered RNTIs are looked up in. It is immutable — merge
// builds a new one when a UE is added or purged — so every snapshot
// shares the current one instead of copying the list.
type ueIndex struct {
	rntis []uint16
	order map[uint16]int // C-RNTI -> index into rntis
}

func newUEIndex(rntis []uint16) *ueIndex {
	ix := &ueIndex{rntis: rntis, order: make(map[uint16]int, len(rntis))}
	for i, rnti := range rntis {
		ix.order[rnti] = i
	}
	return ix
}

// foundDCI is one successfully decoded and translated DCI.
type foundDCI struct {
	rnti  uint16
	d     dci.DCI
	grant dci.Grant
	cand  phy.Candidate
}

// newUE is a MSG4 discovery: the RNTI recovered from the CRC XOR.
type newUE struct {
	rnti  uint16
	grant dci.Grant
	cand  phy.Candidate
}

// decodeResult is everything a decode pass found in one slot. The Scope
// owns one: decodeSlot resets it, keeping the backing arrays of its find
// lists, and merge copies what it keeps out of it before the next slot.
type decodeResult struct {
	slotIdx int
	ref     phy.SlotRef
	hadGrid bool

	mib    *rrc.MIB
	sib1   *rrc.SIB1
	setup  *rrc.Setup
	common []foundDCI
	newUEs []newUE
	data   []foundDCI

	elapsed time.Duration
}

// reset readies r for the slot of cap, reusing its find lists' storage.
func (r *decodeResult) reset(cap *radio.Capture) {
	*r = decodeResult{
		slotIdx: cap.SlotIdx, ref: cap.Ref,
		common: r.common[:0], newUEs: r.newUEs[:0], data: r.data[:0],
	}
}

// slotScratch is the reusable working memory of one decodeSlot pass:
// occupancy/claim masks for both CORESETs, the common-search-space
// candidate list, the position arena, and the buffers of the UE
// confirmation step. The Scope owns one, so steady-state slots allocate
// nothing for any of it. Nothing in a decodeResult may point into it.
type slotScratch struct {
	occupied   []bool
	claimed    []bool
	ueOccupied []bool
	ueClaimed  []bool
	cssCands   []phy.Candidate
	cssBlock   []uint8
	pdschBuf   []byte // SIB1/MSG4 transport-block bytes (pdsch.DecodeInto)
	arena      posArena
	hits       []int    // tracked-UE indices named by one level's CRCs
	found      []ueFind // confirmed UE DCIs, in confirmation order
}

// boolMask resizes buf to n entries, filled with fill.
func boolMask(buf []bool, n int, fill bool) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

// raRNTILookback is how many recent slots' RA-RNTIs are excluded from
// new-UE discovery (a RAR's CRC recovers to the RA-RNTI of its own
// slot; the window absorbs scheduling jitter).
const raRNTILookback = 5

// decodeSlot is the pure (state-immutable) per-slot processing: the
// "SIBs thread", "RACH thread" and "DCI threads" of the paper's Fig. 4
// all run here against the snapshot. It returns the Scope's owned
// result, valid until the next call.
func (s *Scope) decodeSlot(snap *snapshot, cap *radio.Capture) *decodeResult {
	start := time.Now()
	res := &s.res
	res.reset(cap)
	met.slots.Inc()
	defer func() {
		res.elapsed = time.Since(start)
		met.decodeLatency.Observe(res.elapsed.Seconds())
	}()
	if cap.Grid == nil {
		return res
	}
	res.hadGrid = true

	// Cell search: until the MIB is in hand nothing else can run.
	if snap.mib == nil {
		if data, ok := pdsch.DecodePBCH(cap.Grid, s.cellID, cap.N0); ok {
			if mib, err := rrc.DecodeMIB(data); err == nil && !mib.CellBarred {
				res.mib = &mib
			}
		}
		return res
	}

	sc := &s.scratch

	// One DMRS-correlation sweep over the CORESET feeds both passes —
	// this plus the demapping is the "signal processing" term of the
	// paper's O(n log n + m) cost model. With the gate ablated, every
	// CCE is treated as potentially occupied.
	if snap.dmrsGate {
		sc.occupied = s.codec.OccupiedCCEsInto(sc.occupied, cap.Grid, snap.coreset, cap.Ref.Slot)
	} else {
		sc.occupied = boolMask(sc.occupied, snap.coreset.NumCCE(), true)
	}
	sc.claimed = boolMask(sc.claimed, len(sc.occupied), false)

	// USS pass: DCI extraction for every known UE. It needs both SIB1
	// (the active-BWP DCI sizes) and an RRC Setup (the UE search space) —
	// the paper's step 1 before step 2, which orders merged state, not
	// the passes within a slot. The USS pass reads only the snapshot,
	// never this slot's CSS result, so it runs first: its confirmed DCIs
	// claim their CCEs, and the CSS pass skips them.
	if snap.sib1 != nil && snap.setup != nil && len(snap.ues.rntis) > 0 {
		s.decodeUESpace(snap, cap, res, sc)
	}

	// CSS pass: SIB decoding and RACH/new-UE tracking.
	s.decodeCommon(snap, cap, res, sc)
	return res
}

// decodeCommon scans the common search space. It runs after the USS
// pass, so sc.claimed already holds the CCEs of confirmed UE DCIs when
// both share one control region (a CCE carries one PDCCH, so a CSS
// candidate over them could only pass its CRC by chance); its own finds
// claim their CCEs for the CSS candidates after them.
func (s *Scope) decodeCommon(snap *snapshot, cap *radio.Capture, res *decodeResult, sc *slotScratch) {
	occupied, claimed := sc.occupied, sc.claimed
	fallbackSize := dci.ClassSize(dci.Fallback, snap.commonCfg)

	sc.cssCands = phy.AppendSlotCandidates(sc.cssCands[:0], snap.commonSS, snap.coreset, 0, cap.Ref.Slot)
	for _, cand := range sc.cssCands {
		if !spanTrue(occupied, cand.StartCCE, cand.AggLevel) || anyTrue(claimed, cand.StartCCE, cand.AggLevel) {
			continue
		}
		block, err := s.codec.DecodeCandidateInto(sc.cssBlock, cap.Grid, snap.coreset, cand, cap.Ref.Slot, fallbackSize, cap.N0)
		if err != nil {
			met.decodeFailed.Inc()
			continue
		}
		met.candAttempted.Inc()
		sc.cssBlock = block[:0]
		payload, rnti, ok := bits.RecoverRNTI(block)
		if !ok {
			met.decodeFailed.Inc()
			continue
		}
		met.crntiRecovers.Inc()
		d, err := dci.Unpack(payload, dci.Fallback, snap.commonCfg)
		if err != nil {
			met.decodeFailed.Inc()
			continue
		}
		grant, err := dci.ToGrant(d, rnti, snap.commonCfg, controlLink())
		if err != nil {
			met.decodeFailed.Inc()
			continue
		}
		// CCEs are claimed only for accepted finds: a RecoverRNTI false
		// positive (the 8 visible CRC bits pass by chance 1 in 256) must
		// not shadow a later CSS candidate.

		switch {
		case rnti == dci.SIRNTI:
			met.candMatched.Inc()
			if snap.sib1 == nil && res.sib1 == nil {
				data, ok := pdsch.DecodeInto(sc.pdschBuf, cap.Grid, grant, s.cellID, cap.N0)
				sc.pdschBuf = data
				if ok {
					if sib1, err := rrc.DecodeSIB1(data); err == nil {
						res.sib1 = &sib1
					}
				}
			}
			res.common = append(res.common, foundDCI{rnti: rnti, d: d, grant: grant, cand: cand})
			markTrue(claimed, cand.StartCCE, cand.AggLevel)
		case isRecentRARNTI(rnti, cap.SlotIdx):
			met.candMatched.Inc()
			res.common = append(res.common, foundDCI{rnti: rnti, d: d, grant: grant, cand: cand})
			markTrue(claimed, cand.StartCCE, cand.AggLevel)
		default:
			// Candidate MSG 4: the recovered RNTI is a would-be C-RNTI
			// (paper §3.1.2). Verify via the RRC Setup PDSCH CRC unless
			// the shortcut is on and the Setup is already known.
			if snap.setup == nil || snap.verifyMSG4 {
				data, ok := pdsch.DecodeInto(sc.pdschBuf, cap.Grid, grant, s.cellID, cap.N0)
				sc.pdschBuf = data
				if !ok {
					continue
				}
				setup, err := rrc.DecodeSetup(data)
				if err != nil {
					continue
				}
				if snap.setup == nil && res.setup == nil {
					res.setup = &setup
				}
			}
			met.candMatched.Inc()
			met.msg4Hits.Inc()
			res.newUEs = append(res.newUEs, newUE{rnti: rnti, grant: grant, cand: cand})
			markTrue(claimed, cand.StartCCE, cand.AggLevel)
		}
	}
}

// decodeUESpace blind-decodes the UE search space for every known UE.
//
// Nothing in a candidate decode depends on the RNTI until the very end:
// PDCCH payload scrambling uses the cell id (TS 38.211 §7.3.2.3 without a
// configured UE scrambling id), and the RNTI is only XORed onto the low
// 16 CRC bits. So the pass runs per position, not per UE: each occupied
// AL-aligned position is decoded at most once, whatever the UE count,
// its CRC is computed once, and the RNTI it was addressed to falls out
// of the XOR (§3.1.2, bits.RecoverRNTI) to be looked up in the tracked
// set. Positions are decoded one aggregation level at a time, lowest
// first, and each level's confirmed DCIs claim their CCEs before the
// next (decodePositions). The pass runs before the CSS pass, whose
// candidates then skip those CCEs too.
func (s *Scope) decodeUESpace(snap *snapshot, cap *radio.Capture, res *decodeResult, sc *slotScratch) {
	sizeClass := dci.Fallback
	if snap.setup.NonFallback {
		sizeClass = dci.NonFallback
	}

	// The occupancy mask was swept over CORESET 0, whose CCE indexing is
	// only valid for the UE CORESET when both cover the same control
	// region. A dedicated UE CORESET elsewhere gets its own sweep and its
	// own claim mask, which the CSS pass (addressing CORESET-0 CCEs)
	// never sees.
	ueOccupied, ueClaimed := sc.occupied, sc.claimed
	if !snap.ueCoreset.SameRegion(snap.coreset) {
		if snap.dmrsGate {
			sc.ueOccupied = s.codec.OccupiedCCEsInto(sc.ueOccupied, cap.Grid, snap.ueCoreset, cap.Ref.Slot)
		} else {
			sc.ueOccupied = boolMask(sc.ueOccupied, snap.ueCoreset.NumCCE(), true)
		}
		sc.ueClaimed = boolMask(sc.ueClaimed, len(sc.ueOccupied), false)
		ueOccupied, ueClaimed = sc.ueOccupied, sc.ueClaimed
	}

	s.decodePositions(snap, cap, sizeClass, dci.ClassSize(sizeClass, snap.dataCfg), ueOccupied, ueClaimed, sc)
	if len(sc.found) == 0 {
		return
	}
	// Emit in tracked-UE order, then candidate order, as a sweep over the
	// UE list would.
	slices.SortFunc(sc.found, func(a, b ueFind) int { return cmp.Or(a.ue-b.ue, a.k-b.k) })
	for j := range sc.found {
		res.data = append(res.data, sc.found[j].f)
	}
}

// ueFind is a confirmed UE DCI with its emission key: the UE's index in
// the tracked set and the candidate's index in phy.AppendSlotCandidates
// order.
type ueFind struct {
	ue, k int
	f     foundDCI
}

// posArena is the flat, indexed store of the per-slot position cache:
// one fixed-size block slot per AL-aligned candidate position of the UE
// search space, addressed arithmetically by (aggregation level, start
// CCE). It replaces a map[posKey][]uint8 rebuilt every slot; the backing
// arrays persist in the slot scratch, so steady-state slots reuse them
// without allocating. Beside each block sits the RNTI its CRC names,
// recovered once when the block is decoded.
type posArena struct {
	blockLen int
	counts   [len(phy.AggregationLevels)]int // positions per AL index
	base     [len(phy.AggregationLevels)]int // first entry per AL index
	n        int
	blocks   []uint8 // n * blockLen hard-decision bits
	rnti     []int32 // RNTI recovered from the entry's CRC, or noRNTI
}

// noRNTI marks an arena entry that was not decoded this slot, or whose 8
// unscrambled CRC bits did not check.
const noRNTI = -1

// reset shapes the arena for a search space, CORESET size and block
// length, recycling the backing arrays.
func (a *posArena) reset(ss phy.SearchSpace, nCCE, blockLen int) {
	a.blockLen = blockLen
	n := 0
	for i, al := range phy.AggregationLevels {
		a.base[i] = n
		a.counts[i] = 0
		if ss.Candidates[al] == 0 || al > nCCE {
			continue
		}
		a.counts[i] = nCCE / al
		n += a.counts[i]
	}
	a.n = n
	if cap(a.blocks) < n*blockLen {
		a.blocks = make([]uint8, n*blockLen)
	}
	a.blocks = a.blocks[:n*blockLen]
	if cap(a.rnti) < n {
		a.rnti = make([]int32, n)
	}
	a.rnti = a.rnti[:n]
	for i := range a.rnti {
		a.rnti[i] = noRNTI
	}
}

// writeBlock returns entry idx's block storage, capacity-capped so a
// decode into it cannot spill into the neighbouring entry.
func (a *posArena) writeBlock(idx int) []uint8 {
	return a.blocks[idx*a.blockLen : idx*a.blockLen : (idx+1)*a.blockLen]
}

// find returns the entry index of position (al, cce), or -1 when the
// search space has no such position.
func (a *posArena) find(al, cce int) int {
	i := phy.ALIndex(al)
	if i < 0 || a.counts[i] == 0 || cce%al != 0 {
		return -1
	}
	k := cce / al
	if k < 0 || k >= a.counts[i] {
		return -1
	}
	return a.base[i] + k
}

// decodePositions decodes the UE search space one aggregation level at
// a time, lowest first. A level's occupied, unclaimed positions are
// decoded and the RNTI each one's CRC names is recovered; the tracked
// UEs named are confirmed (confirmUE), and every confirmed DCI claims
// its CCEs in claimed. A CCE carries one PDCCH, so the higher levels
// never decode a block laid over a DCI already found. Positions whose
// aggregation level cannot carry the payload at all are counted as
// empty (nothing can be transmitted there), not as decode failures.
func (s *Scope) decodePositions(snap *snapshot, cap *radio.Capture, sizeClass dci.SizeClass, payloadBits int, occupied, claimed []bool, sc *slotScratch) {
	nCCE := snap.ueCoreset.NumCCE()
	ar := &sc.arena
	ar.reset(snap.ueSS, nCCE, payloadBits+24)
	sc.found = sc.found[:0]
	for i, al := range phy.AggregationLevels {
		if ar.counts[i] == 0 {
			continue
		}
		fits := pdcch.PayloadFits(payloadBits, al)
		off := phy.LevelOffset(snap.ueSS, snap.ueCoreset, al)
		sc.hits = sc.hits[:0]
		for cce := 0; cce+al <= nCCE; cce += al {
			if !spanTrue(occupied, cce, al) || anyTrue(claimed, cce, al) {
				continue
			}
			if !fits {
				met.positionsEmpty.Inc()
				continue
			}
			idx := ar.base[i] + cce/al
			s.decodePosition(snap, cap, payloadBits, ar, idx, phy.Candidate{AggLevel: al, StartCCE: cce})
			if r := ar.rnti[idx]; r >= 0 {
				if ue, tracked := snap.ues.order[uint16(r)]; tracked {
					sc.hits = append(sc.hits, ue)
				}
			}
		}
		slices.Sort(sc.hits)
		for _, ue := range slices.Compact(sc.hits) {
			confirmUE(snap, cap, ue, al, off, sizeClass, claimed, sc)
		}
	}
}

// decodePosition decodes one candidate position into its arena entry idx
// and evaluates its CRC — the only CRC run over that block, whatever the
// UE count.
func (s *Scope) decodePosition(snap *snapshot, cap *radio.Capture, payloadBits int, ar *posArena, idx int, cand phy.Candidate) {
	met.positions.Inc()
	block, err := s.codec.DecodeCandidateInto(ar.writeBlock(idx), cap.Grid, snap.ueCoreset, cand, cap.Ref.Slot, payloadBits, cap.N0)
	if err != nil {
		met.decodeFailed.Inc()
		return
	}
	met.candAttempted.Inc()
	if _, rnti, ok := bits.RecoverRNTI(block); ok {
		ar.rnti[idx] = int32(rnti)
	}
}

// confirmUE walks tracked UE ue's M_L hashed candidates at aggregation
// level al, in candidate order, over the positions whose CRC named it,
// and claims the CCEs of each DCI it confirms. Candidate m's emission key
// is off+m, its index in phy.AppendSlotCandidates order (off is
// phy.LevelOffset of al). A UE can legitimately receive several DCIs in
// one TTI (a retransmission plus new data, or a downlink assignment plus
// an uplink grant), so every one is kept. The claim mask also applies
// the same-UE overlap rule: a candidate over CCEs an earlier hit already
// explained is skipped. A position naming the UE that is none of its
// candidates is a chance CRC pass on someone else's (or no one's) block;
// it is dropped and claims nothing.
func confirmUE(snap *snapshot, cap *radio.Capture, ue, al, off int, sizeClass dci.SizeClass, claimed []bool, sc *slotScratch) {
	ar := &sc.arena
	rnti := snap.ues.rntis[ue]
	for m := range snap.ueSS.Candidates[al] {
		cce, ok := phy.CandidateCCE(snap.ueSS, snap.ueCoreset, rnti, cap.Ref.Slot, al, m)
		if !ok {
			continue
		}
		idx := ar.find(al, cce)
		if idx < 0 || ar.rnti[idx] != int32(rnti) || anyTrue(claimed, cce, al) {
			continue
		}
		d, err := dci.Unpack(ar.writeBlock(idx)[:ar.blockLen-24], sizeClass, snap.dataCfg)
		if err != nil {
			met.decodeFailed.Inc()
			continue
		}
		grant, err := dci.ToGrant(d, rnti, snap.dataCfg, snap.link)
		if err != nil {
			met.decodeFailed.Inc()
			continue
		}
		met.candMatched.Inc()
		markTrue(claimed, cce, al)
		cand := phy.Candidate{AggLevel: al, Index: m, StartCCE: cce}
		sc.found = append(sc.found, ueFind{ue: ue, k: off + m, f: foundDCI{rnti: rnti, d: d, grant: grant, cand: cand}})
	}
}

// controlLink mirrors the fallback-format link parameters (single
// layer, 64QAM table) that DCI 1_0 grants always use.
func controlLink() dci.LinkConfig {
	return dci.LinkConfig{DMRSPerPRB: 12, Overhead: 0, Layers: 1, Table: mcs.TableQAM64}
}

func isRecentRARNTI(rnti uint16, slotIdx int) bool {
	for k := 0; k < raRNTILookback; k++ {
		if slotIdx-k < 0 {
			break
		}
		if rnti == dci.RARNTI(slotIdx-k) {
			return true
		}
	}
	return false
}

func spanTrue(mask []bool, start, n int) bool {
	if start < 0 || start+n > len(mask) {
		return false
	}
	for i := start; i < start+n; i++ {
		if !mask[i] {
			return false
		}
	}
	return true
}

func anyTrue(mask []bool, start, n int) bool {
	if start < 0 || start+n > len(mask) {
		return true
	}
	for i := start; i < start+n; i++ {
		if mask[i] {
			return true
		}
	}
	return false
}

func markTrue(mask []bool, start, n int) {
	for i := start; i < start+n && i < len(mask); i++ {
		mask[i] = true
	}
}
