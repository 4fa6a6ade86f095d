// Package rrc models the Radio Resource Control messages NR-Scope decodes
// (paper §3.1): the MIB broadcast on the PBCH, SIB1 carried on the PDSCH
// via CORESET 0, the RACH Random Access Response (MSG 2), and the RRC
// Setup (MSG 4) that carries each UE's dedicated channel configuration.
//
// Real RRC uses ASN.1 UPER; with a stdlib-only constraint this package
// defines compact fixed-layout binary codecs with the same information
// content (DESIGN.md §2). Every message round-trips bit-exactly, and the
// decoders validate ranges so corrupted PDSCH payloads are rejected
// rather than silently misread.
package rrc

import (
	"fmt"

	"nrscope/internal/bits"
	"nrscope/internal/dci"
	"nrscope/internal/mcs"
	"nrscope/internal/phy"
)

// MIB is the Master Information Block (TS 38.331 §6.2.2), broadcast every
// 10 ms on the PBCH. It gives a UE (and NR-Scope) the frame timing and
// where to find CORESET 0 — step 1 of the paper's Fig. 2.
type MIB struct {
	SFN              int            // system frame number, 0..1023
	Mu               phy.Numerology // subcarrier spacing of SIB1/initial access
	CellID           uint16         // physical cell id (carried alongside for the sim)
	Coreset0StartPRB int
	Coreset0NumPRB   int
	Coreset0Duration int
	CellBarred       bool
}

// Validate checks field ranges.
func (m MIB) Validate() error {
	if m.SFN < 0 || m.SFN >= phy.MaxSFN {
		return fmt.Errorf("rrc: MIB SFN %d", m.SFN)
	}
	if !m.Mu.Valid() {
		return fmt.Errorf("rrc: MIB numerology %d", int(m.Mu))
	}
	cs := phy.CORESET{ID: 0, StartPRB: m.Coreset0StartPRB, NumPRB: m.Coreset0NumPRB, Duration: m.Coreset0Duration}
	if err := cs.Validate(); err != nil {
		return fmt.Errorf("rrc: MIB CORESET0: %w", err)
	}
	return nil
}

// Coreset0 returns the CORESET 0 geometry the MIB advertises.
func (m MIB) Coreset0() phy.CORESET {
	return phy.CORESET{ID: 0, StartPRB: m.Coreset0StartPRB, NumPRB: m.Coreset0NumPRB, Duration: m.Coreset0Duration}
}

// Encode serialises the MIB.
func (m MIB) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	w := bits.NewWriter(64)
	w.WriteUint(uint64(m.SFN), 10)
	w.WriteUint(uint64(m.Mu), 2)
	w.WriteUint(uint64(m.CellID), 16)
	w.WriteUint(uint64(m.Coreset0StartPRB), 9)
	w.WriteUint(uint64(m.Coreset0NumPRB), 9)
	w.WriteUint(uint64(m.Coreset0Duration), 2)
	w.WriteBool(m.CellBarred)
	return bits.Pack(w.Bits()), nil
}

// mibBits is the encoded MIB length in bits.
const mibBits = 10 + 2 + 16 + 9 + 9 + 2 + 1

// DecodeMIB parses an encoded MIB.
func DecodeMIB(data []byte) (MIB, error) {
	if len(data)*8 < mibBits {
		return MIB{}, fmt.Errorf("rrc: MIB too short (%d bytes)", len(data))
	}
	r := bits.NewReader(bits.Unpack(data, mibBits))
	m := MIB{
		SFN:              int(r.ReadUint(10)),
		Mu:               phy.Numerology(r.ReadUint(2)),
		CellID:           uint16(r.ReadUint(16)),
		Coreset0StartPRB: int(r.ReadUint(9)),
		Coreset0NumPRB:   int(r.ReadUint(9)),
		Coreset0Duration: int(r.ReadUint(2)),
		CellBarred:       r.ReadBool(),
	}
	if err := r.Err(); err != nil {
		return MIB{}, err
	}
	if err := m.Validate(); err != nil {
		return MIB{}, err
	}
	return m, nil
}

// SIB1 carries the cell's common configuration (paper §3.1.1): everything
// a UE needs for the RACH process and the common PDCCH parameters, which
// is exactly what lets NR-Scope skip the blind search earlier 4G tools
// needed.
type SIB1 struct {
	CellID      uint16
	CarrierPRBs int            // full carrier width in PRBs
	TDD         phy.TDDPattern // slot pattern (all-D for FDD)

	// Common PDCCH: the common search space lives in CORESET 0 with
	// these candidate counts per aggregation level.
	CommonCandidates map[int]int

	// RACH configuration: a PRACH occasion occurs every RACHPeriod
	// slots (in uplink slots); MSG2 follows within the response window.
	RACHPeriodSlots int

	// SIB1 itself is rebroadcast every this many slots.
	SIB1PeriodSlots int

	// TimeAllocRows bounds the time-domain allocation table rows in use.
	TimeAllocRows int
}

// Validate checks field ranges.
func (s SIB1) Validate() error {
	if s.CarrierPRBs < 1 || s.CarrierPRBs > 275 {
		return fmt.Errorf("rrc: SIB1 carrier PRBs %d", s.CarrierPRBs)
	}
	if s.TDD.Len() == 0 || s.TDD.Len() > 16 {
		return fmt.Errorf("rrc: SIB1 TDD pattern length %d", s.TDD.Len())
	}
	if s.RACHPeriodSlots < 1 || s.RACHPeriodSlots > 1024 {
		return fmt.Errorf("rrc: SIB1 RACH period %d", s.RACHPeriodSlots)
	}
	if s.SIB1PeriodSlots < 1 || s.SIB1PeriodSlots > 4096 {
		return fmt.Errorf("rrc: SIB1 period %d", s.SIB1PeriodSlots)
	}
	if s.TimeAllocRows < 1 || s.TimeAllocRows > 16 {
		return fmt.Errorf("rrc: SIB1 time alloc rows %d", s.TimeAllocRows)
	}
	if len(s.CommonCandidates) == 0 {
		return fmt.Errorf("rrc: SIB1 has no common candidates")
	}
	for l, m := range s.CommonCandidates {
		ok := false
		for _, al := range phy.AggregationLevels {
			if l == al {
				ok = true
			}
		}
		if !ok || m < 0 || m > 8 {
			return fmt.Errorf("rrc: SIB1 candidate entry AL%d x%d invalid", l, m)
		}
	}
	return nil
}

// Encode serialises SIB1.
func (s SIB1) Encode() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := bits.NewWriter(256)
	w.WriteUint(uint64(s.CellID), 16)
	w.WriteUint(uint64(s.CarrierPRBs), 9)
	w.WriteUint(uint64(s.TDD.Len()), 5)
	for i := 0; i < s.TDD.Len(); i++ {
		w.WriteUint(uint64(s.TDD.Direction(i)), 2)
	}
	// Candidates: fixed order over the five aggregation levels.
	for _, al := range phy.AggregationLevels {
		w.WriteUint(uint64(s.CommonCandidates[al]), 4)
	}
	w.WriteUint(uint64(s.RACHPeriodSlots), 11)
	w.WriteUint(uint64(s.SIB1PeriodSlots), 13)
	w.WriteUint(uint64(s.TimeAllocRows), 5)
	return bits.Pack(w.Bits()), nil
}

// DecodeSIB1 parses an encoded SIB1.
func DecodeSIB1(data []byte) (SIB1, error) {
	all := bits.Unpack(data, len(data)*8)
	r := bits.NewReader(all)
	var s SIB1
	s.CellID = uint16(r.ReadUint(16))
	s.CarrierPRBs = int(r.ReadUint(9))
	patLen := int(r.ReadUint(5))
	if patLen == 0 || patLen > 16 {
		return SIB1{}, fmt.Errorf("rrc: SIB1 TDD pattern length %d", patLen)
	}
	pat := make([]byte, patLen)
	for i := range pat {
		switch phy.SlotDirection(r.ReadUint(2)) {
		case phy.SlotDownlink:
			pat[i] = 'D'
		case phy.SlotUplink:
			pat[i] = 'U'
		case phy.SlotSpecial:
			pat[i] = 'S'
		default:
			return SIB1{}, fmt.Errorf("rrc: SIB1 bad slot direction")
		}
	}
	tdd, err := phy.NewTDDPattern(string(pat))
	if err != nil {
		return SIB1{}, err
	}
	s.TDD = tdd
	s.CommonCandidates = make(map[int]int, len(phy.AggregationLevels))
	for _, al := range phy.AggregationLevels {
		if n := int(r.ReadUint(4)); n > 0 {
			s.CommonCandidates[al] = n
		}
	}
	s.RACHPeriodSlots = int(r.ReadUint(11))
	s.SIB1PeriodSlots = int(r.ReadUint(13))
	s.TimeAllocRows = int(r.ReadUint(5))
	if err := r.Err(); err != nil {
		return SIB1{}, err
	}
	if err := s.Validate(); err != nil {
		return SIB1{}, err
	}
	return s, nil
}

// RAR is the Random Access Response (MSG 2): it assigns the TC-RNTI and
// grants uplink resources for MSG 3 (paper footnote 3).
type RAR struct {
	TCRNTI        uint16
	TimingAdvance int // 12 bits
	MSG3SlotDelta int // slots until the MSG3 PUSCH occasion
}

// Validate checks field ranges.
func (r RAR) Validate() error {
	if r.TCRNTI < dci.MinCRNTI || r.TCRNTI > dci.MaxCRNTI {
		return fmt.Errorf("rrc: RAR TC-RNTI %#x out of range", r.TCRNTI)
	}
	if r.TimingAdvance < 0 || r.TimingAdvance > 4095 {
		return fmt.Errorf("rrc: RAR TA %d", r.TimingAdvance)
	}
	if r.MSG3SlotDelta < 1 || r.MSG3SlotDelta > 64 {
		return fmt.Errorf("rrc: RAR MSG3 delta %d", r.MSG3SlotDelta)
	}
	return nil
}

// Encode serialises the RAR.
func (r RAR) Encode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	w := bits.NewWriter(40)
	w.WriteUint(uint64(r.TCRNTI), 16)
	w.WriteUint(uint64(r.TimingAdvance), 12)
	w.WriteUint(uint64(r.MSG3SlotDelta), 7)
	return bits.Pack(w.Bits()), nil
}

// DecodeRAR parses an encoded RAR. Kept: the RAR allowlist (ROADMAP
// item 4(c)) puts it on the decode path; today only tests call it.
func DecodeRAR(data []byte) (RAR, error) {
	if len(data)*8 < 35 {
		return RAR{}, fmt.Errorf("rrc: RAR too short")
	}
	rd := bits.NewReader(bits.Unpack(data, 35))
	r := RAR{
		TCRNTI:        uint16(rd.ReadUint(16)),
		TimingAdvance: int(rd.ReadUint(12)),
		MSG3SlotDelta: int(rd.ReadUint(7)),
	}
	if err := rd.Err(); err != nil {
		return RAR{}, err
	}
	if err := r.Validate(); err != nil {
		return RAR{}, err
	}
	return r, nil
}

// Setup is the RRC Setup message (MSG 4): the UE-dedicated configuration
// the paper's §3.1.2 extracts — CORESET position, search-space candidate
// counts, DCI format, and the pdsch-ServingCellConfig elements that feed
// the TBS computation (maxMIMO-Layers, xOverhead, mcs-Table, DMRS).
// The paper observes the Setup content is identical across UEs in a cell,
// which NR-Scope exploits to skip redundant PDSCH decodes (§3.1.2).
type Setup struct {
	// UE-specific PDCCH.
	CORESET      phy.CORESET
	UECandidates map[int]int
	NonFallback  bool // whether data DCIs use formats 0_1/1_1

	// pdsch-ServingCellConfig / dmrs config.
	DMRSPerPRB int // REs of DMRS per PRB
	XOverhead  int // 0, 6, 12, 18
	MaxLayers  int // maxMIMO-Layers
	MCSTable   mcs.Table
}

// Validate checks field ranges.
func (s Setup) Validate() error {
	if err := s.CORESET.Validate(); err != nil {
		return fmt.Errorf("rrc: Setup CORESET: %w", err)
	}
	if len(s.UECandidates) == 0 {
		return fmt.Errorf("rrc: Setup has no UE candidates")
	}
	for l, m := range s.UECandidates {
		ok := false
		for _, al := range phy.AggregationLevels {
			if l == al {
				ok = true
			}
		}
		if !ok || m < 0 || m > 8 {
			return fmt.Errorf("rrc: Setup candidate entry AL%d x%d invalid", l, m)
		}
	}
	if s.DMRSPerPRB < 0 || s.DMRSPerPRB > 36 {
		return fmt.Errorf("rrc: Setup DMRS %d", s.DMRSPerPRB)
	}
	switch s.XOverhead {
	case 0, 6, 12, 18:
	default:
		return fmt.Errorf("rrc: Setup xOverhead %d", s.XOverhead)
	}
	if s.MaxLayers < 1 || s.MaxLayers > 4 {
		return fmt.Errorf("rrc: Setup maxMIMO-Layers %d", s.MaxLayers)
	}
	return nil
}

// LinkConfig converts the Setup's PDSCH parameters to the form the grant
// translation consumes.
func (s Setup) LinkConfig() dci.LinkConfig {
	return dci.LinkConfig{
		DMRSPerPRB: s.DMRSPerPRB,
		Overhead:   s.XOverhead,
		Layers:     s.MaxLayers,
		Table:      s.MCSTable,
	}
}

// Encode serialises the Setup.
func (s Setup) Encode() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := bits.NewWriter(128)
	w.WriteUint(uint64(s.CORESET.ID), 4)
	w.WriteUint(uint64(s.CORESET.StartPRB), 9)
	w.WriteUint(uint64(s.CORESET.NumPRB), 9)
	w.WriteUint(uint64(s.CORESET.Duration), 2)
	w.WriteUint(uint64(s.CORESET.StartSym), 4)
	for _, al := range phy.AggregationLevels {
		w.WriteUint(uint64(s.UECandidates[al]), 4)
	}
	w.WriteBool(s.NonFallback)
	w.WriteUint(uint64(s.DMRSPerPRB), 6)
	w.WriteUint(uint64(s.XOverhead/6), 2)
	w.WriteUint(uint64(s.MaxLayers), 3)
	w.WriteBool(s.MCSTable == mcs.TableQAM256)
	return bits.Pack(w.Bits()), nil
}

// setupBits is the encoded Setup length in bits.
const setupBits = 4 + 9 + 9 + 2 + 4 + 5*4 + 1 + 6 + 2 + 3 + 1

// DecodeSetup parses an encoded Setup.
func DecodeSetup(data []byte) (Setup, error) {
	if len(data)*8 < setupBits {
		return Setup{}, fmt.Errorf("rrc: Setup too short (%d bytes)", len(data))
	}
	r := bits.NewReader(bits.Unpack(data, setupBits))
	var s Setup
	s.CORESET.ID = int(r.ReadUint(4))
	s.CORESET.StartPRB = int(r.ReadUint(9))
	s.CORESET.NumPRB = int(r.ReadUint(9))
	s.CORESET.Duration = int(r.ReadUint(2))
	s.CORESET.StartSym = int(r.ReadUint(4))
	s.UECandidates = make(map[int]int, len(phy.AggregationLevels))
	for _, al := range phy.AggregationLevels {
		if n := int(r.ReadUint(4)); n > 0 {
			s.UECandidates[al] = n
		}
	}
	s.NonFallback = r.ReadBool()
	s.DMRSPerPRB = int(r.ReadUint(6))
	s.XOverhead = int(r.ReadUint(2)) * 6
	s.MaxLayers = int(r.ReadUint(3))
	if r.ReadBool() {
		s.MCSTable = mcs.TableQAM256
	} else {
		s.MCSTable = mcs.TableQAM64
	}
	if err := r.Err(); err != nil {
		return Setup{}, err
	}
	if err := s.Validate(); err != nil {
		return Setup{}, err
	}
	return s, nil
}
