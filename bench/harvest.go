package main

import (
	"slices"

	"nrscope/internal/bits"
	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/dci"
	"nrscope/internal/mcs"
	"nrscope/internal/pdcch"
	"nrscope/internal/pdsch"
	"nrscope/internal/phy"
	"nrscope/internal/pucch"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/telemetry"
)

// probeStride is how densely the per-UE sweep is harvested: every 8th
// steady slot. The common search space is harvested on every slot,
// because the PDSCH verifications it triggers are rare.
const probeStride = 8

// raRNTILookback mirrors the scope's window of recent RA-RNTIs.
const raRNTILookback = 5

// Inputs to one layer's exported function, taken from a recording at
// the point the scope would call it.
type (
	candInput struct {
		slot        int // index into the recording
		cs          phy.CORESET
		cand        phy.Candidate
		payloadBits int
	}
	matchInput struct {
		block []uint8
		rnti  uint16
	}
	grantInput struct {
		payload []uint8
		rnti    uint16
		class   dci.SizeClass
		cfg     dci.Config
		link    dci.LinkConfig
	}
	pdschInput struct {
		slot  int
		grant dci.Grant
	}
	sweepInput struct {
		rnti    uint16
		refSlot int
	}
	pucchInput struct {
		cap  *radio.Capture
		rnti uint16
	}
)

// harvest is every layer's inputs from one recording, plus how many
// slots they came from, so a count per slot can stand beside each unit
// cost.
type harvest struct {
	rec   *recording
	cell  ran.CellConfig
	codec *pdcch.Codec

	dlSlots  int   // steady slots with a downlink grid: occupancy and common search space
	ussSlots int   // the strided subset the per-UE sweep was harvested on
	occ      []int // recording indices of the occupancy inputs

	css        []candInput  // common-search-space decodes
	uss        []candInput  // UE-search-space position decodes
	recover    [][]uint8    // blocks handed to bits.RecoverRNTI
	sweeps     []sweepInput // phy.AppendSlotCandidates calls
	matches    []matchInput // bits.MatchDCICRC calls
	grants     []grantInput // dci.Unpack + dci.ToGrant calls
	pdschAll   []pdschInput // every PDSCH verification the scope makes: SIB1, MSG4, false alarms
	pdschReady []pdschInput // the steady-state subset
	pbch       []int        // recording indices of slots whose PBCH decodes
	found      []dci.Grant  // grants that became records
	records    []telemetry.Record

	ulSlots    int
	pucchBusy  []pucchInput // resources carrying a report
	pucchEmpty []pucchInput // resources the energy gate rejects
}

func controlLink() dci.LinkConfig {
	return dci.LinkConfig{DMRSPerPRB: 12, Overhead: 0, Layers: 1, Table: mcs.TableQAM64}
}

func isRecentRARNTI(rnti uint16, slotIdx int) bool {
	for k := 0; k < raRNTILookback && slotIdx-k >= 0; k++ {
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
	for _, v := range mask[start : start+n] {
		if !v {
			return false
		}
	}
	return true
}

func anyTrue(mask []bool, start, n int) bool {
	if start < 0 || start+n > len(mask) {
		return true
	}
	for _, v := range mask[start : start+n] {
		if v {
			return true
		}
	}
	return false
}

// harvestRecording walks a recording the way core.decodeSlot does —
// occupancy sweep, common search space, position pass, per-UE sweep —
// but from outside, through the layers' exported functions, and keeps
// the arguments of every call. A scope runs alongside only to say which
// UEs are known at each slot and to supply the records the telemetry
// and storage probes replay.
func harvestRecording(rec *recording, cell ran.CellConfig) *harvest {
	h := &harvest{rec: rec, cell: cell, codec: pdcch.New(rec.cellID)}
	sc := core.New(rec.cellID)
	cs0 := cell.Coreset0
	ueCS := cell.Setup.CORESET
	ueSS := phy.SearchSpace{ID: ueCS.ID, Type: phy.UESearchSpace, Candidates: cell.Setup.UECandidates}
	commonCfg, dataCfg := cell.CommonDCIConfig(), cell.DCIConfig()
	fallbackBits := dci.ClassSize(dci.Fallback, commonCfg)
	class := dci.Fallback
	if cell.Setup.NonFallback {
		class = dci.NonFallback
	}
	ueBits := dci.ClassSize(class, dataCfg)
	link := cell.Setup.LinkConfig()

	var occupied, claimed []bool
	var cssCands, ueCands []phy.Candidate
	sib1Known := false
	steadySeen := 0
	for i := range rec.slots {
		s := &rec.slots[i]
		known := sc.KnownUEs()
		steady := len(known) == rec.nUE
		if g := s.DL.Grid; g != nil {
			slot := s.DL.Ref.Slot
			if len(h.pbch) < 32 {
				if _, ok := pdsch.DecodePBCH(g, rec.cellID, s.DL.N0); ok {
					h.pbch = append(h.pbch, i)
				}
			}
			occupied = h.codec.OccupiedCCEsInto(occupied, g, cs0, slot)
			claimed = slices.Grow(claimed[:0], len(occupied))[:len(occupied)]
			clear(claimed)
			if steady {
				h.dlSlots++
				h.occ = append(h.occ, i)
			}
			cssCands = phy.AppendSlotCandidates(cssCands[:0], cell.CommonSS, cs0, 0, slot)
			for _, cand := range cssCands {
				if !spanTrue(occupied, cand.StartCCE, cand.AggLevel) || anyTrue(claimed, cand.StartCCE, cand.AggLevel) {
					continue
				}
				block, err := h.codec.DecodeCandidateInto(nil, g, cs0, cand, slot, fallbackBits, s.DL.N0)
				if err != nil {
					continue
				}
				if steady {
					h.css = append(h.css, candInput{i, cs0, cand, fallbackBits})
					h.recover = append(h.recover, block)
				}
				payload, rnti, ok := bits.RecoverRNTI(block)
				if !ok {
					continue
				}
				d, err := dci.Unpack(payload, dci.Fallback, commonCfg)
				if err != nil {
					continue
				}
				grant, err := dci.ToGrant(d, rnti, commonCfg, controlLink())
				if err != nil {
					continue
				}
				switch {
				case rnti == dci.SIRNTI:
					if !sib1Known {
						sib1Known = true
						h.pdschAll = append(h.pdschAll, pdschInput{i, grant})
					}
				case isRecentRARNTI(rnti, s.SlotIdx):
				default:
					// A would-be MSG4: the scope verifies its PDSCH.
					in := pdschInput{i, grant}
					h.pdschAll = append(h.pdschAll, in)
					if steady {
						h.pdschReady = append(h.pdschReady, in)
					}
					if _, ok := pdsch.Decode(g, grant, rec.cellID, s.DL.N0); !ok {
						continue
					}
				}
				for c := cand.StartCCE; c < cand.StartCCE+cand.AggLevel && c < len(claimed); c++ {
					claimed[c] = true
				}
			}
			if steady {
				steadySeen++
			}
			if steady && steadySeen%probeStride == 0 {
				h.ussSlots++
				h.harvestUESpace(i, known, ueCS, ueSS, ueBits, class, dataCfg, link, occupied, claimed, &ueCands)
			}
		}
		res := sc.ProcessSlot(&s.DL)
		if steady {
			h.records = append(h.records, res.Records...)
		}
		if g := s.UL.Grid; g != nil && steady {
			h.ulSlots++
			for _, rnti := range known {
				in := pucchInput{&s.UL, rnti}
				if pucch.ResourceEnergy(g, rnti) >= pucch.EnergyThreshold {
					h.pucchBusy = append(h.pucchBusy, in)
				} else {
					h.pucchEmpty = append(h.pucchEmpty, in)
				}
			}
		}
	}
	if len(h.pucchEmpty) == 0 {
		// Every UE reports in every uplink slot of these cells, so the
		// recording holds no empty resource; a slot nobody transmits in,
		// received through the same channel, supplies the energy gate's
		// input.
		quiet := radio.NewReceiver(channel.Normal, scopeSNRdB, 1).Capture(0, phy.SlotRef{}, phy.NewGrid(cell.CarrierPRBs))
		for _, rnti := range sc.KnownUEs() {
			h.pucchEmpty = append(h.pucchEmpty, pucchInput{quiet, rnti})
		}
	}
	return h
}

// harvestUESpace mirrors decodePositions and decodeOneUE for one slot.
func (h *harvest) harvestUESpace(i int, known []uint16, cs phy.CORESET, ss phy.SearchSpace, payloadBits int,
	class dci.SizeClass, cfg dci.Config, link dci.LinkConfig, occupied, claimed []bool, scratch *[]phy.Candidate) {
	s := &h.rec.slots[i]
	slot := s.DL.Ref.Slot
	type pos struct{ al, cce int }
	blocks := make(map[pos][]uint8)
	nCCE := cs.NumCCE()
	for _, al := range phy.AggregationLevels {
		if ss.Candidates[al] == 0 || al > nCCE || !pdcch.PayloadFits(payloadBits, al) {
			continue
		}
		for cce := 0; cce+al <= nCCE; cce += al {
			if !spanTrue(occupied, cce, al) || anyTrue(claimed, cce, al) {
				continue
			}
			cand := phy.Candidate{AggLevel: al, StartCCE: cce}
			h.uss = append(h.uss, candInput{i, cs, cand, payloadBits})
			if block, err := h.codec.DecodeCandidateInto(nil, s.DL.Grid, cs, cand, slot, payloadBits, s.DL.N0); err == nil {
				blocks[pos{al, cce}] = block
			}
		}
	}
	for _, rnti := range known {
		h.sweeps = append(h.sweeps, sweepInput{rnti, slot})
		*scratch = phy.AppendSlotCandidates((*scratch)[:0], ss, cs, rnti, slot)
		for _, cand := range *scratch {
			block, ok := blocks[pos{cand.AggLevel, cand.StartCCE}]
			if !ok {
				continue
			}
			h.matches = append(h.matches, matchInput{block, rnti})
			if !bits.MatchDCICRC(block, rnti) {
				continue
			}
			in := grantInput{block[:len(block)-24], rnti, class, cfg, link}
			h.grants = append(h.grants, in)
			if d, err := dci.Unpack(in.payload, class, cfg); err == nil {
				if g, err := dci.ToGrant(d, rnti, cfg, link); err == nil {
					h.found = append(h.found, g)
				}
			}
		}
	}
}
