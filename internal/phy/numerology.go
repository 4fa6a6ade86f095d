// Package phy models the 5G NR physical-layer geometry that both the
// simulated gNB and NR-Scope share: numerology (subcarrier spacing and
// TTI duration), the per-slot resource grid, CORESET/REG/CCE control-
// channel geometry with the TS 38.213 search-space hashing, resource
// allocation RIVs, and TDD slot patterns.
package phy

import (
	"fmt"
	"time"
)

// Numerology is the 3GPP μ value. SCS = 15 kHz · 2^μ.
type Numerology int

// Numerologies supported by NR-Scope (TTIs of 1, 0.5 and 0.25 ms — §3
// "Preliminaries" in the paper).
const (
	Mu0 Numerology = 0 // 15 kHz, 1 ms slots (4G-compatible, T-Mobile FDD cells)
	Mu1 Numerology = 1 // 30 kHz, 0.5 ms slots (all TDD cells in the paper)
	Mu2 Numerology = 2 // 60 kHz, 0.25 ms slots
)

// SymbolsPerSlot is fixed at 14 for normal cyclic prefix.
const SymbolsPerSlot = 14

// SubcarriersPerPRB is fixed at 12.
const SubcarriersPerPRB = 12

// SCSkHz returns the subcarrier spacing in kHz.
func (m Numerology) SCSkHz() int { return 15 << uint(m) }

// SlotsPerSubframe returns the number of slots in one 1 ms subframe.
func (m Numerology) SlotsPerSubframe() int { return 1 << uint(m) }

// SlotsPerFrame returns the number of slots in one 10 ms system frame.
func (m Numerology) SlotsPerFrame() int { return 10 << uint(m) }

// SlotDuration returns the TTI duration.
func (m Numerology) SlotDuration() time.Duration {
	return time.Millisecond / time.Duration(m.SlotsPerSubframe())
}

// Valid reports whether the numerology is one NR-Scope handles.
func (m Numerology) Valid() bool { return m >= Mu0 && m <= Mu2 }

// String implements fmt.Stringer.
func (m Numerology) String() string {
	return fmt.Sprintf("mu%d(%dkHz)", int(m), m.SCSkHz())
}

// MaxSFN is the exclusive upper bound of the system frame number space;
// one system frame is 10 ms (paper footnote 1).
const MaxSFN = 1024

// SlotRef identifies one TTI unambiguously within the SFN cycle.
type SlotRef struct {
	SFN  int // system frame number, 0..1023
	Slot int // slot within the frame, 0..SlotsPerFrame-1
}

// Next returns the slot reference that follows s.
func (s SlotRef) Next(mu Numerology) SlotRef {
	s.Slot++
	if s.Slot >= mu.SlotsPerFrame() {
		s.Slot = 0
		s.SFN = (s.SFN + 1) % MaxSFN
	}
	return s
}

// String implements fmt.Stringer.
func (s SlotRef) String() string { return fmt.Sprintf("%d.%d", s.SFN, s.Slot) }

// PRBsForBandwidth returns the number of PRBs in a carrier of the given
// bandwidth (MHz) at the given numerology, per the TS 38.101-1 §5.3.2
// transmission-bandwidth tables for the configurations used in the
// paper's evaluation (10/15/20 MHz at 15/30 kHz SCS).
func PRBsForBandwidth(mhz int, mu Numerology) (int, error) {
	type key struct {
		mhz int
		mu  Numerology
	}
	table := map[key]int{
		{5, Mu0}: 25, {10, Mu0}: 52, {15, Mu0}: 79, {20, Mu0}: 106,
		{5, Mu1}: 11, {10, Mu1}: 24, {15, Mu1}: 38, {20, Mu1}: 51,
		{40, Mu1}: 106, {50, Mu1}: 133, {100, Mu1}: 273,
		{10, Mu2}: 11, {20, Mu2}: 24, {40, Mu2}: 51, {100, Mu2}: 132,
	}
	n, ok := table[key{mhz, mu}]
	if !ok {
		return 0, fmt.Errorf("phy: no PRB table entry for %d MHz at %v", mhz, mu)
	}
	return n, nil
}
