package dci

import (
	"fmt"

	"nrscope/internal/mcs"
	"nrscope/internal/phy"
)

// LinkConfig carries the UE-dedicated parameters needed to turn a DCI
// into a grant with a transport block size. NR-Scope learns them from
// MSG 4 / RRC Setup (paper §3.1.2, §3.2.2): nof_dmrs per PRB, the
// xOverhead and maxMIMO-Layers of pdsch-ServingCellConfig, and the MCS
// table.
type LinkConfig struct {
	DMRSPerPRB int
	Overhead   int
	Layers     int
	Table      mcs.Table
}

// DefaultLinkConfig mirrors the evaluation cells: one DMRS symbol per
// allocation (12 REs with 2 CDM groups), no extra overhead, single layer,
// 256QAM table.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{DMRSPerPRB: 12, Overhead: 0, Layers: 1, Table: mcs.TableQAM256}
}

// Grant is a translated DCI: the actual time-frequency allocation and
// transport block the gNB scheduled, mirroring the paper's Appendix B
// "Grant" block.
type Grant struct {
	RNTI     uint16
	Format   Format
	Downlink bool

	StartPRB int
	NumPRB   int
	Time     phy.TimeAlloc

	MCSIndex int
	Table    mcs.Table
	NDI      uint8
	RV       int
	HARQID   int
	Layers   int

	TBS   int     // transport block size in bits
	NRE   int     // effective REs
	NBits int     // channel bits
	R     float64 // code rate
	Qm    int     // modulation order
}

// REGCount returns the allocation size in REGs (1 PRB × 1 symbol), the
// unit of the paper's Fig. 8 decoding-accuracy comparison.
func (g Grant) REGCount() int { return g.NumPRB * g.Time.NumSymbols }

// String renders the grant in the srsRAN-log style of Appendix B.
func (g Grant) String() string {
	dir := "UL"
	if g.Downlink {
		dir = "DL"
	}
	return fmt.Sprintf("rnti=0x%04x dci=%v %s f_alloc=%d:%d t_alloc=%d:%d mcs=%d tbs=%d rv=%d ndi=%d harq_id=%d",
		g.RNTI, g.Format, dir, g.StartPRB, g.NumPRB, g.Time.StartSymbol, g.Time.NumSymbols,
		g.MCSIndex, g.TBS, g.RV, g.NDI, g.HARQID)
}

// ToGrant translates a decoded DCI into a Grant using the cell config
// (field widths, BWP size, time-allocation table) and the UE's link
// config. The fallback formats always use the 64QAM table and a single
// layer, as the standard prescribes for DCI 1_0.
func ToGrant(d DCI, rnti uint16, cfg Config, link LinkConfig) (Grant, error) {
	return ToGrantWith(d, rnti, cfg, link, nil)
}

// ToGrantWith is ToGrant computing the transport block size through
// memo (mcs.Compute when memo is nil).
func ToGrantWith(d DCI, rnti uint16, cfg Config, link LinkConfig, memo *mcs.Memo) (Grant, error) {
	start, length, err := phy.DecodeRIV(cfg.BWPPRBs, d.FreqAlloc)
	if err != nil {
		return Grant{}, fmt.Errorf("dci: grant translation: %w", err)
	}
	if d.TimeAlloc >= len(phy.DefaultTimeAllocTable) {
		return Grant{}, fmt.Errorf("dci: time alloc row %d beyond table", d.TimeAlloc)
	}
	ta := phy.DefaultTimeAllocTable[d.TimeAlloc]

	table := link.Table
	layers := link.Layers
	if d.Format == Format10 || d.Format == Format00 {
		table = mcs.TableQAM64
		layers = 1
	}
	res, err := memo.Compute(mcs.TBSParams{
		NPRB:       length,
		NSymbols:   ta.NumSymbols,
		DMRSPerPRB: link.DMRSPerPRB,
		Overhead:   link.Overhead,
		Layers:     layers,
		MCSIndex:   d.MCS,
		Table:      table,
	})
	if err != nil {
		return Grant{}, fmt.Errorf("dci: grant translation: %w", err)
	}
	return Grant{
		RNTI:     rnti,
		Format:   d.Format,
		Downlink: d.Format.Downlink(),
		StartPRB: start,
		NumPRB:   length,
		Time:     ta,
		MCSIndex: d.MCS,
		Table:    table,
		NDI:      d.NDI,
		RV:       d.RV,
		HARQID:   d.HARQID,
		Layers:   layers,
		TBS:      res.TBS,
		NRE:      res.NRE,
		NBits:    res.NBits,
		R:        res.R,
		Qm:       res.Qm,
	}, nil
}
