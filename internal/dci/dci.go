// Package dci models 5G NR Downlink Control Information (TS 38.212 §7.3):
// the four formats NR-Scope decodes (0_0 and 0_1 for uplink grants, 1_0
// and 1_1 for downlink grants), their size computation from the cell
// configuration, bit-exact packing/unpacking, and translation of a
// decoded DCI into the downlink/uplink grant the paper's Appendix B
// shows.
//
// A DCI payload is 30–80 bits (paper §3.2.1); its CRC is scrambled with
// the addressed UE's RNTI (bits.AttachDCICRC), which is why NR-Scope must
// track C-RNTIs before it can decode anything.
package dci

import (
	"fmt"

	"nrscope/internal/phy"
)

// Well-known RNTI values (TS 38.321 Table 7.1-1).
const (
	// SIRNTI addresses system information (SIB1) DCIs.
	SIRNTI uint16 = 0xFFFF
	// MinCRNTI and MaxCRNTI bound the C-RNTI/TC-RNTI space a gNB assigns.
	MinCRNTI uint16 = 0x0001
	MaxCRNTI uint16 = 0xFFEF
)

// RARNTI computes the RA-RNTI addressing a random-access response from
// the slot in which the preamble was received (simplified TS 38.321
// §5.1.3: we fold the occasion into the slot index).
func RARNTI(slot int) uint16 {
	return uint16(1 + slot%0x3FFF)
}

// Format enumerates the DCI formats NR-Scope handles.
type Format int

// DCI formats (TS 38.212 §7.3.1).
const (
	Format00 Format = iota // uplink, fallback
	Format01               // uplink, non-fallback
	Format10               // downlink, fallback (SIB1, RAR, MSG4)
	Format11               // downlink, non-fallback (UE data)
)

// String implements fmt.Stringer with the 3GPP spelling.
func (f Format) String() string {
	switch f {
	case Format00:
		return "0_0"
	case Format01:
		return "0_1"
	case Format10:
		return "1_0"
	case Format11:
		return "1_1"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Downlink reports whether the format schedules PDSCH (as opposed to PUSCH).
func (f Format) Downlink() bool { return f == Format10 || f == Format11 }

// Config carries the cell/BWP parameters that determine DCI field widths.
// NR-Scope assembles it from SIB1 (common config) and the RRC Setup
// (UE-dedicated config) — paper §3.1.
type Config struct {
	BWPPRBs       int // bandwidth part width; sets the RIV field width
	TimeAllocRows int // rows in the PDSCH/PUSCH time-allocation table
	MaxHARQ       int // HARQ processes (field is log2 width, up to 16)
}

// DefaultConfig mirrors the 20 MHz / 30 kHz cells of the evaluation.
func DefaultConfig(bwpPRBs int) Config {
	return Config{BWPPRBs: bwpPRBs, TimeAllocRows: len(phy.DefaultTimeAllocTable), MaxHARQ: 16}
}

func (c Config) timeAllocBits() int { return ceilLog2(c.TimeAllocRows) }
func (c Config) harqBits() int      { return ceilLog2(c.MaxHARQ) }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BWPPRBs < 1 {
		return fmt.Errorf("dci: BWPPRBs = %d", c.BWPPRBs)
	}
	if c.TimeAllocRows < 1 || c.TimeAllocRows > 16 {
		return fmt.Errorf("dci: TimeAllocRows = %d", c.TimeAllocRows)
	}
	if c.MaxHARQ < 1 || c.MaxHARQ > 16 {
		return fmt.Errorf("dci: MaxHARQ = %d", c.MaxHARQ)
	}
	return nil
}

// DCI is the decoded content of one downlink control information
// message. Which fields are meaningful depends on the Format; unused
// fields are zero. It mirrors the paper's Appendix B sample:
//
//	c-rnti=0x4296, dci=1_1, ss=ue, L=0, cce=7, f_alloc=0x33, t_alloc=0x0,
//	mcs=27, ndi=0, rv=0, harq_id=11, dai=2, tpc=1, harq_feedback=2,
//	ports=7, srs_request=0, dmrs_id=0
type DCI struct {
	Format Format

	FreqAlloc   uint32 // RIV over the BWP
	TimeAlloc   int    // row index into the time-allocation table
	VRBToPRB    int    // 1 bit (downlink formats)
	FreqHopping int    // 1 bit (uplink formats)
	MCS         int    // 5 bits
	NDI         uint8  // new-data indicator, 1 bit
	RV          int    // redundancy version, 2 bits
	HARQID      int    // HARQ process id
	DAI         int    // downlink assignment index, 2 bits
	TPC         int    // transmit power control, 2 bits
	PUCCHRes    int    // PUCCH resource indicator, 3 bits (DL formats)
	HARQTiming  int    // PDSCH-to-HARQ feedback timing, 3 bits (DL formats)
	Ports       int    // antenna ports, 4 bits (non-fallback formats)
	SRSRequest  int    // 2 bits (non-fallback formats)
	DMRSSeqInit int    // 1 bit (non-fallback formats)
}

// Validate checks field ranges against the configuration.
func (d DCI) Validate(c Config) error {
	if d.TimeAlloc < 0 || d.TimeAlloc >= c.TimeAllocRows {
		return fmt.Errorf("dci: time alloc row %d out of table (%d rows)", d.TimeAlloc, c.TimeAllocRows)
	}
	if d.MCS < 0 || d.MCS > 31 {
		return fmt.Errorf("dci: MCS %d out of 5-bit range", d.MCS)
	}
	if d.HARQID < 0 || d.HARQID >= c.MaxHARQ {
		return fmt.Errorf("dci: HARQ id %d out of range", d.HARQID)
	}
	if d.RV < 0 || d.RV > 3 {
		return fmt.Errorf("dci: RV %d out of range", d.RV)
	}
	return nil
}

func ceilLog2(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}
