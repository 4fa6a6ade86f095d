// Package ran simulates a 5G Standalone gNB at symbol level: it
// broadcasts MIB/SIB1, runs the RACH MSG1-4 state machine, schedules
// downlink and uplink data with HARQ over TDD or FDD slot patterns, and
// emits per-slot resource grids plus an srsRAN-style ground-truth log.
// NR-Scope (internal/core) sees only the grids — exactly the passive
// vantage point of the paper.
package ran

import (
	"fmt"
	"time"

	"nrscope/internal/dci"
	"nrscope/internal/mcs"
	"nrscope/internal/pdsch"
	"nrscope/internal/phy"
	"nrscope/internal/rrc"
	"nrscope/internal/sched"
)

// pdschPBCHSpan is the carrier width the SSB/PBCH block requires.
const pdschPBCHSpan = pdsch.PBCHStartPRB + pdsch.PBCHNumPRB

// CellConfig fully describes a simulated cell. The presets below mirror
// the four networks of the paper's §5.1 evaluation methodology.
type CellConfig struct {
	Name        string
	CellID      uint16
	Mu          phy.Numerology
	CarrierPRBs int
	TDD         phy.TDDPattern

	// CORESET geometry: CORESET 0 carries the common search space; the
	// UE-dedicated search space lives in the CORESET advertised by the
	// RRC Setup (same PRBs, different id and hashing in these cells).
	Coreset0 phy.CORESET
	CommonSS phy.SearchSpace

	// Setup is the (UE-invariant) RRC Setup content, carrying the
	// dedicated CORESET/search space and the PDSCH parameters.
	Setup rrc.Setup

	// Broadcast cadence.
	SIB1PeriodSlots int
	RACHPeriodSlots int

	// ControlMCS is the (low) MCS used for SIB1/RAR/MSG4 PDSCH.
	ControlMCS int

	// BaseSNRdB is the default mean SNR of gNB<->UE links.
	BaseSNRdB float64

	// MaxHARQRetx caps HARQ attempts per TB (first tx + retx).
	MaxHARQRetx int

	Seed int64
}

// Validate checks the configuration coherence.
func (c CellConfig) Validate() error {
	if !c.Mu.Valid() {
		return fmt.Errorf("ran: invalid numerology")
	}
	if c.CarrierPRBs < pdschPBCHSpan {
		// The SSB/PBCH block occupies 20 PRBs; narrower carriers would
		// silently write outside the grid.
		return fmt.Errorf("ran: carrier of %d PRBs cannot hold the SSB (needs %d)", c.CarrierPRBs, pdschPBCHSpan)
	}
	if err := c.Coreset0.Validate(); err != nil {
		return fmt.Errorf("ran: CORESET0: %w", err)
	}
	if c.Coreset0.StartPRB+c.Coreset0.NumPRB > c.CarrierPRBs {
		return fmt.Errorf("ran: CORESET0 exceeds carrier")
	}
	if err := c.Setup.Validate(); err != nil {
		return fmt.Errorf("ran: %w", err)
	}
	if c.SIB1PeriodSlots < 1 || c.RACHPeriodSlots < 1 {
		return fmt.Errorf("ran: broadcast periods must be positive")
	}
	if c.ControlMCS < 0 || c.ControlMCS > 9 {
		return fmt.Errorf("ran: control MCS %d outside the low-rate range", c.ControlMCS)
	}
	if c.MaxHARQRetx < 1 {
		return fmt.Errorf("ran: MaxHARQRetx must be >= 1")
	}
	return nil
}

// TTI returns the slot duration.
func (c CellConfig) TTI() time.Duration { return c.Mu.SlotDuration() }

// DCIConfig derives the DCI field-width context for UE-data DCIs over
// the active BWP (the full carrier in these cells). NR-Scope
// reconstructs it from SIB1.
func (c CellConfig) DCIConfig() dci.Config {
	return dci.Config{
		BWPPRBs:       c.CarrierPRBs,
		TimeAllocRows: len(phy.DefaultTimeAllocTable),
		MaxHARQ:       16,
	}
}

// CommonDCIConfig is the field-width context for common (CORESET 0)
// DCIs, sized over the initial BWP — the CORESET 0 span — exactly so a
// passive observer can size SIB1's DCI from the MIB alone.
func (c CellConfig) CommonDCIConfig() dci.Config {
	return dci.Config{
		BWPPRBs:       c.Coreset0.NumPRB,
		TimeAllocRows: len(phy.DefaultTimeAllocTable),
		MaxHARQ:       16,
	}
}

// SIB1 assembles the SIB1 message the cell broadcasts.
func (c CellConfig) SIB1() rrc.SIB1 {
	return rrc.SIB1{
		CellID:           c.CellID,
		CarrierPRBs:      c.CarrierPRBs,
		TDD:              c.TDD,
		CommonCandidates: c.CommonSS.Candidates,
		RACHPeriodSlots:  c.RACHPeriodSlots,
		SIB1PeriodSlots:  c.SIB1PeriodSlots,
		TimeAllocRows:    len(phy.DefaultTimeAllocTable),
	}
}

// baseCell builds the pieces shared by every preset.
func baseCell(name string, cellID uint16, mu phy.Numerology, prbs int, tdd phy.TDDPattern, snr float64) CellConfig {
	coresetPRBs := prbs - prbs%phy.REGsPerCCE // widest whole-CCE span
	if coresetPRBs > 48 {
		coresetPRBs = 48
	}
	cs0 := phy.CORESET{ID: 0, StartPRB: 0, NumPRB: coresetPRBs, Duration: 1, StartSym: 0}
	ueCS := cs0
	ueCS.ID = 1
	return CellConfig{
		Name:        name,
		CellID:      cellID,
		Mu:          mu,
		CarrierPRBs: prbs,
		TDD:         tdd,
		Coreset0:    cs0,
		CommonSS:    phy.SearchSpace{ID: 0, Type: phy.CommonSearchSpace, Candidates: phy.DefaultCommonCandidates()},
		Setup: rrc.Setup{
			CORESET:      ueCS,
			UECandidates: phy.DefaultUECandidates(),
			NonFallback:  true,
			DMRSPerPRB:   12,
			XOverhead:    0,
			MaxLayers:    1,
			MCSTable:     mcs.TableQAM256,
		},
		SIB1PeriodSlots: 40,
		RACHPeriodSlots: 20,
		ControlMCS:      4,
		BaseSNRdB:       snr,
		MaxHARQRetx:     4,
		Seed:            1,
	}
}

// SrsRANCell mirrors [srsRAN/Open5GS]: band n41 TDD, 20 MHz, 30 kHz SCS.
func SrsRANCell() CellConfig {
	prbs, err := phy.PRBsForBandwidth(20, phy.Mu1)
	if err != nil {
		panic(err)
	}
	return baseCell("srsRAN/Open5GS", 1, phy.Mu1, prbs, phy.MustTDDPattern("DDDSU"), 22)
}

// MosolabCell mirrors [Mosolabs/Aether]: CBRS band n48 TDD, 20 MHz,
// 30 kHz SCS.
func MosolabCell() CellConfig {
	c := baseCell("Mosolabs/Aether", 2, phy.Mu1, mustPRBs(20, phy.Mu1), phy.MustTDDPattern("DDDSU"), 20)
	return c
}

// AmarisoftCell mirrors [Amari Callbox]: band n78 TDD, 20 MHz, 30 kHz
// SCS, with the UE emulator able to attach up to 64 UEs.
func AmarisoftCell() CellConfig {
	c := baseCell("Amari Callbox", 3, phy.Mu1, mustPRBs(20, phy.Mu1), phy.MustTDDPattern("DDDSU"), 21)
	return c
}

// TMobileCell mirrors the commercial cells: FDD, 15 kHz SCS, 10 MHz
// (cell 1, n25) or 15 MHz (cell 2, n71) downlink carriers.
func TMobileCell(n int) CellConfig {
	switch n {
	case 1:
		return baseCell("T-Mobile cell 1 (n25)", 101, phy.Mu0, mustPRBs(10, phy.Mu0), phy.FDD(), 17)
	case 2:
		return baseCell("T-Mobile cell 2 (n71)", 102, phy.Mu0, mustPRBs(15, phy.Mu0), phy.FDD(), 15)
	default:
		panic(fmt.Sprintf("ran: no T-Mobile cell %d", n))
	}
}

func mustPRBs(mhz int, mu phy.Numerology) int {
	n, err := phy.PRBsForBandwidth(mhz, mu)
	if err != nil {
		panic(err)
	}
	return n
}

// ueSearchSpace derives the UE search space from the Setup.
func (c CellConfig) ueSearchSpace() phy.SearchSpace {
	return phy.SearchSpace{ID: 1, Type: phy.UESearchSpace, Candidates: c.Setup.UECandidates}
}

// controlLink is the link config used for fallback/control grants.
func controlLink() dci.LinkConfig {
	return dci.LinkConfig{DMRSPerPRB: 12, Overhead: 0, Layers: 1, Table: mcs.TableQAM64}
}

// dataRegionRow is the time-allocation row used for data this slot.
const dataRegionRow = 0

// schedRegion builds the scheduler region after reserving ctrlPRBs at
// the front of the carrier.
func (c CellConfig) schedRegion(ctrlPRBs int) sched.Region {
	return sched.Region{
		StartPRB: ctrlPRBs,
		NumPRB:   c.CarrierPRBs - ctrlPRBs,
		TimeRow:  dataRegionRow,
		Link:     c.Setup.LinkConfig(),
	}
}
