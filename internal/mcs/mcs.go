// Package mcs implements the modulation-and-coding-scheme tables and the
// transport block size (TBS) computation of TS 38.214 §5.1.3, which the
// paper restates in Appendix A. The TBS is the quantity NR-Scope extracts
// from every decoded DCI: it is exactly how many bits the gNB delivered
// to a UE in that TTI, and summing it in a sliding window yields the
// per-UE throughput of Figs. 9, 14 and 16.
package mcs

import (
	"fmt"
	"math"

	"nrscope/internal/modulation"
)

// Table selects which MCS index table the cell configured for a UE
// (carried in the RRC Setup's PDSCH config; paper Appendix B shows
// mcs_table=256qam).
type Table int

// MCS tables of TS 38.214 §5.1.3.1.
const (
	TableQAM64  Table = iota // Table 5.1.3.1-1
	TableQAM256              // Table 5.1.3.1-2
)

// String implements fmt.Stringer using the srsRAN log spelling.
func (t Table) String() string {
	if t == TableQAM256 {
		return "256qam"
	}
	return "64qam"
}

// Entry is one MCS table row: modulation order Qm and code rate R
// expressed as R*1024 (the standard's fixed-point form).
type Entry struct {
	Qm         int
	RTimes1024 float64
}

// R returns the code rate as a float.
func (e Entry) R() float64 { return e.RTimes1024 / 1024 }

// Scheme returns the modulation scheme for the entry.
func (e Entry) Scheme() modulation.Scheme {
	s, err := modulation.FromQm(e.Qm)
	if err != nil {
		panic(err)
	}
	return s
}

// tableQAM64 is TS 38.214 Table 5.1.3.1-1 (indices 0..28).
var tableQAM64 = []Entry{
	{2, 120}, {2, 157}, {2, 193}, {2, 251}, {2, 308}, {2, 379}, {2, 449},
	{2, 526}, {2, 602}, {2, 679}, {4, 340}, {4, 378}, {4, 434}, {4, 490},
	{4, 553}, {4, 616}, {4, 658}, {6, 438}, {6, 466}, {6, 517}, {6, 567},
	{6, 616}, {6, 666}, {6, 719}, {6, 772}, {6, 822}, {6, 873}, {6, 910},
	{6, 948},
}

// tableQAM256 is TS 38.214 Table 5.1.3.1-2 (indices 0..27).
var tableQAM256 = []Entry{
	{2, 120}, {2, 193}, {2, 308}, {2, 449}, {2, 602}, {4, 378}, {4, 434},
	{4, 490}, {4, 553}, {4, 616}, {4, 658}, {6, 466}, {6, 517}, {6, 567},
	{6, 616}, {6, 666}, {6, 719}, {6, 772}, {6, 822}, {6, 873}, {8, 682.5},
	{8, 711}, {8, 754}, {8, 797}, {8, 841}, {8, 885}, {8, 916.5}, {8, 948},
}

// MaxIndex returns the largest valid MCS index for the table.
func (t Table) MaxIndex() int {
	if t == TableQAM256 {
		return len(tableQAM256) - 1
	}
	return len(tableQAM64) - 1
}

// Lookup resolves an MCS index against the table.
func (t Table) Lookup(index int) (Entry, error) {
	var tab []Entry
	if t == TableQAM256 {
		tab = tableQAM256
	} else {
		tab = tableQAM64
	}
	if index < 0 || index >= len(tab) {
		return Entry{}, fmt.Errorf("mcs: index %d out of range for table %v", index, t)
	}
	return tab[index], nil
}

// tbsTable is TS 38.214 Table 5.1.3.2-2: every legal TBS value not
// exceeding 3824 bits.
var tbsTable = []int{
	24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144,
	152, 160, 168, 176, 184, 192, 208, 224, 240, 256, 272, 288, 304, 320,
	336, 352, 368, 384, 408, 432, 456, 480, 504, 528, 552, 576, 608, 640,
	672, 704, 736, 768, 808, 848, 888, 928, 984, 1032, 1064, 1128, 1160,
	1192, 1224, 1256, 1288, 1320, 1352, 1416, 1480, 1544, 1608, 1672,
	1736, 1800, 1864, 1928, 2024, 2088, 2152, 2216, 2280, 2408, 2472,
	2536, 2600, 2664, 2728, 2792, 2856, 2976, 3104, 3240, 3368, 3496,
	3624, 3752, 3824,
}

// TBSParams collects everything the TBS computation needs. NR-Scope
// learns NSymbols and NPRB from the DCI grant; DMRSPerPRB, Overhead,
// Layers and the table come from the RRC Setup (paper §3.2.2 and
// Appendix A).
type TBSParams struct {
	NPRB       int   // allocated PRBs (f_alloc)
	NSymbols   int   // allocated OFDM symbols (t_alloc)
	DMRSPerPRB int   // REs of DMRS per PRB in the allocation
	Overhead   int   // xOverhead from pdsch-ServingCellConfig (0, 6, 12, 18)
	Layers     int   // maxMIMO-Layers (v)
	MCSIndex   int   // from the DCI
	Table      Table // from RRC
}

// Validate checks parameter sanity.
func (p TBSParams) Validate() error {
	if p.NPRB < 1 {
		return fmt.Errorf("mcs: NPRB = %d", p.NPRB)
	}
	if p.NSymbols < 1 || p.NSymbols > 14 {
		return fmt.Errorf("mcs: NSymbols = %d", p.NSymbols)
	}
	if p.DMRSPerPRB < 0 || p.Overhead < 0 {
		return fmt.Errorf("mcs: negative DMRS/overhead")
	}
	if p.Layers < 1 || p.Layers > 4 {
		return fmt.Errorf("mcs: layers = %d not in [1,4]", p.Layers)
	}
	return nil
}

// Result carries the TBS computation outputs, mirroring the fields of the
// paper's Appendix B grant (tbs, R, mod, nof_re, nof_bits).
type Result struct {
	TBS    int     // transport block size in bits
	NRE    int     // effective REs allocated (capped at 156/PRB)
	Qm     int     // modulation order
	R      float64 // code rate
	NBits  int     // physical channel bits = NRE * Qm * layers
	Ninfo  float64 // intermediate information payload estimate
	Scheme modulation.Scheme
}

// Compute runs the TS 38.214 §5.1.3.2 TBS determination (paper Appendix A).
func Compute(p TBSParams) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	entry, err := p.Table.Lookup(p.MCSIndex)
	if err != nil {
		return Result{}, err
	}
	// Step 1: effective REs.
	nREPrime := phySubcarriersPerPRB*p.NSymbols - p.DMRSPerPRB - p.Overhead
	if nREPrime < 0 {
		nREPrime = 0
	}
	nRE := min(156, nREPrime) * p.NPRB
	if nRE == 0 {
		return Result{}, fmt.Errorf("mcs: allocation has zero usable REs")
	}
	r := entry.R()
	qm := entry.Qm
	v := p.Layers
	// Step 2: Ninfo.
	ninfo := float64(nRE) * r * float64(qm) * float64(v)

	res := Result{
		NRE:    nRE,
		Qm:     qm,
		R:      r,
		NBits:  nRE * qm * v,
		Ninfo:  ninfo,
		Scheme: entry.Scheme(),
	}

	// Step 3: quantise to the TBS. Note: the paper's Appendix A restates
	// this with the two branch quantisers transposed; we follow TS 38.214
	// §5.1.3.2 directly, which reproduces the paper's own Appendix B
	// example (432 REs at MCS 27/256QAM -> TBS 3240).
	if ninfo <= 3824 {
		n := math.Max(3, math.Floor(math.Log2(ninfo))-6)
		step := math.Exp2(n)
		nInfoQ := math.Max(24, step*math.Floor(ninfo/step))
		// Smallest table TBS not less than N'info.
		for _, tbs := range tbsTable {
			if float64(tbs) >= nInfoQ {
				res.TBS = tbs
				return res, nil
			}
		}
		res.TBS = tbsTable[len(tbsTable)-1]
		return res, nil
	}
	n := math.Floor(math.Log2(ninfo-24)) - 5
	step := math.Exp2(n)
	nInfoQ := math.Max(3840, step*math.Round((ninfo-24)/step))
	switch {
	case r <= 0.25:
		c := math.Ceil((nInfoQ + 24) / 3816)
		res.TBS = int(8*c*math.Ceil((nInfoQ+24)/(8*c))) - 24
	case nInfoQ > 8424:
		c := math.Ceil((nInfoQ + 24) / 8424)
		res.TBS = int(8*c*math.Ceil((nInfoQ+24)/(8*c))) - 24
	default:
		res.TBS = int(8*math.Ceil((nInfoQ+24)/8)) - 24
	}
	return res, nil
}

// phySubcarriersPerPRB mirrors phy.SubcarriersPerPRB without importing the
// package (keeps mcs dependency-free below modulation).
const phySubcarriersPerPRB = 12

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SpareCapacityBitsExact estimates how many bits spareREs resource
// elements would carry for a UE at the given MCS entry and layer count —
// the paper's §5.4.1 fair-share spare capacity: the same spare REs
// translate to different bit rates for different UEs because their
// modulation and coding rates differ (Fig. 14a). The share is
// fractional: the fair-share split rarely divides evenly, and
// truncating it to whole REs discards up to one RE per UE.
func SpareCapacityBitsExact(spareREs float64, e Entry, layers int) float64 {
	return spareREs * e.R() * float64(e.Qm) * float64(layers)
}

// IndexForEfficiency returns the highest MCS index in the table whose
// spectral efficiency (R·Qm) does not exceed eff. The gNB's link
// adaptation uses it to map a CQI-derived efficiency to an MCS.
func (t Table) IndexForEfficiency(eff float64) int {
	best := 0
	for i := 0; i <= t.MaxIndex(); i++ {
		e, _ := t.Lookup(i)
		if e.R()*float64(e.Qm) <= eff {
			best = i
		}
	}
	return best
}

// memoBits sets the number of entries of a Memo, 1 << memoBits.
const memoBits = 9

const memoSlots = 1 << memoBits

// Memo is a bounded, direct-mapped memo of Compute: each TBSParams hashes
// to one entry, which holds the last result computed there, keyed by the
// full parameter tuple. A hit returns exactly what Compute returned; a
// colliding key evicts the entry. Errors are never memoised. The zero
// Memo is empty and ready to use; a nil *Memo computes every call. A
// Memo is not safe for concurrent use.
type Memo struct {
	entries [memoSlots]memoEntry
}

type memoEntry struct {
	key TBSParams
	ok  bool
	res Result
}

// Compute is Compute(p), from the memo when p was the last key computed
// in its entry.
func (m *Memo) Compute(p TBSParams) (Result, error) {
	if m == nil {
		return Compute(p)
	}
	e := &m.entries[memoSlot(p)]
	if e.ok && e.key == p {
		return e.res, nil
	}
	res, err := Compute(p)
	if err != nil {
		return res, err
	}
	*e = memoEntry{key: p, ok: true, res: res}
	return res, nil
}

// memoSlot hashes a parameter tuple to its Memo entry (Fibonacci
// hashing of the fields folded into one word).
func memoSlot(p TBSParams) uint64 {
	h := uint64(p.NPRB)
	for _, v := range [...]int{p.NSymbols, p.DMRSPerPRB, p.Overhead, p.Layers, p.MCSIndex, int(p.Table)} {
		h = h*0x100000001b3 ^ uint64(v)
	}
	return h * 0x9e3779b97f4a7c15 >> (64 - memoBits)
}
