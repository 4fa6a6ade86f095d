// Package pdsch implements the shared-channel processing used for the
// broadcast payloads NR-Scope actually decodes — SIB1, the RAR (MSG 2)
// and the RRC Setup (MSG 4) — plus the PBCH carrying the MIB, and filler
// generation for user-plane transport blocks (whose content the scope
// never inspects; only their DCIs matter).
//
// The FEC is the convolutional/Viterbi substitute for 5G's LDPC
// (DESIGN.md §2). Payloads are CRC24A-protected, coded, rate matched to
// the grant's channel-bit budget, scrambled with the cell/RNTI Gold
// sequence and modulated at the grant's order onto the allocated REs.
package pdsch

import (
	"fmt"
	"sync"

	"nrscope/internal/bits"
	"nrscope/internal/convcode"
	"nrscope/internal/dci"
	"nrscope/internal/modulation"
	"nrscope/internal/phy"
)

// decodeScratch holds the per-decode buffers (symbols, LLRs, scrambling
// sequence, Viterbi trellis) so the per-slot decode paths allocate
// nothing at steady state. Pooled because SIB1/MSG4 decodes can run from
// multiple cell goroutines.
type decodeScratch struct {
	syms []complex128
	llr  []float64
	seq  []uint8
	vit  convcode.Workspace
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

func (sc *decodeScratch) symbols(n int) []complex128 {
	if cap(sc.syms) < n {
		sc.syms = make([]complex128, n)
	}
	return sc.syms[:n]
}

func (sc *decodeScratch) sequence(n int) []uint8 {
	if cap(sc.seq) < n {
		sc.seq = make([]uint8, n)
	}
	return sc.seq[:n]
}

// allocationREs enumerates the REs of a grant's time-frequency
// allocation in mapping order (symbol-major), limited to the first n.
func allocationREs(g dci.Grant, n int) []phy.RE {
	out := make([]phy.RE, 0, n)
	for sym := g.Time.StartSymbol; sym < g.Time.StartSymbol+g.Time.NumSymbols; sym++ {
		for prb := g.StartPRB; prb < g.StartPRB+g.NumPRB; prb++ {
			for off := 0; off < phy.SubcarriersPerPRB; off++ {
				if len(out) == n {
					return out
				}
				out = append(out, phy.RE{Symbol: sym, Subcarrier: prb*phy.SubcarriersPerPRB + off})
			}
		}
	}
	return out
}

// Encode writes a transport block carrying payload onto the grid per the
// grant. The payload must fit the grant's TBS (minus the 24-bit CRC).
// Unused TBS bits are zero padding, exactly like a real MAC PDU.
func Encode(g *phy.Grid, grant dci.Grant, payload []byte, cellID uint16) error {
	if grant.TBS < 24 || len(payload)*8 > grant.TBS-24 {
		return fmt.Errorf("pdsch: payload %d bytes exceeds TBS %d bits", len(payload), grant.TBS)
	}
	tb := make([]uint8, grant.TBS-24)
	copy(tb, bits.Unpack(payload, len(payload)*8))
	block := bits.AttachCRC(bits.CRC24A, tb)
	coded, err := convcode.EncodeAndMatch(block, grant.NBits)
	if err != nil {
		return fmt.Errorf("pdsch: %w", err)
	}
	bits.ScrambleInPlace(bits.PDSCHScramblingInit(grant.RNTI, cellID), coded)
	scheme, err := modulation.FromQm(grant.Qm)
	if err != nil {
		return fmt.Errorf("pdsch: %w", err)
	}
	syms := modulation.Map(scheme, coded)
	res := allocationREs(grant, len(syms))
	if len(res) < len(syms) {
		return fmt.Errorf("pdsch: allocation too small: %d REs for %d symbols", len(res), len(syms))
	}
	for i, re := range res {
		g.Set(re.Symbol, re.Subcarrier, syms[i])
	}
	return nil
}

// gatherAllocation copies the symbols of a grant's time-frequency
// allocation into syms in mapping order (symbol-major). It reports
// whether the allocation holds at least len(syms) REs.
func gatherAllocation(g *phy.Grid, grant dci.Grant, syms []complex128) bool {
	n := len(syms)
	i := 0
	for sym := grant.Time.StartSymbol; sym < grant.Time.StartSymbol+grant.Time.NumSymbols; sym++ {
		for prb := grant.StartPRB; prb < grant.StartPRB+grant.NumPRB; prb++ {
			base := prb * phy.SubcarriersPerPRB
			for off := 0; off < phy.SubcarriersPerPRB; off++ {
				if i == n {
					return true
				}
				syms[i] = g.At(sym, base+off)
				i++
			}
		}
	}
	return i == n
}

// Decode extracts and decodes a transport block addressed by the grant,
// returning the payload bytes (the TBS payload, CRC-verified) and
// whether the CRC passed. Kept: bench/'s harvest pass calls it; the
// Scope decodes through DecodeInto.
func Decode(g *phy.Grid, grant dci.Grant, cellID uint16, n0 float64) ([]byte, bool) {
	out, ok := DecodeInto(nil, g, grant, cellID, n0)
	if !ok {
		return nil, false
	}
	return out, true
}

// DecodeInto is Decode appending the payload bytes to dst[:0], so
// per-slot callers can retain one byte buffer across slots and decode
// without allocating. On failure it returns dst[:0] (capacity retained)
// and false. All intermediate buffers come from a package-level scratch
// pool.
func DecodeInto(dst []byte, g *phy.Grid, grant dci.Grant, cellID uint16, n0 float64) ([]byte, bool) {
	dst = dst[:0]
	if grant.TBS < 24 {
		return dst, false
	}
	scheme, err := modulation.FromQm(grant.Qm)
	if err != nil {
		return dst, false
	}
	nSyms := grant.NBits / grant.Qm
	sc := scratchPool.Get().(*decodeScratch)
	defer scratchPool.Put(sc)
	syms := sc.symbols(nSyms)
	if !gatherAllocation(g, grant, syms) {
		return dst, false
	}
	llr := modulation.DemapInto(sc.llr, scheme, syms, n0)
	sc.llr = llr
	seq := sc.sequence(len(llr))
	bits.GoldSequenceInto(bits.PDSCHScramblingInit(grant.RNTI, cellID), seq)
	bits.DescrambleLLRInPlace(seq, llr)
	decoded := sc.vit.RecoverAndDecode(llr, grant.TBS) // TB payload + CRC24A
	payload, ok := bits.CheckCRC(bits.CRC24A, decoded)
	if !ok {
		return dst, false
	}
	return bits.AppendPacked(dst, payload), true
}

// PBCH geometry: the synchronisation signal block occupies a fixed
// region the UE can find before knowing anything about the cell. We
// place it at symbols 4..7 in the SSB slot, 20 PRBs wide, starting at
// PBCHStartPRB.
const (
	PBCHStartPRB  = 0
	PBCHNumPRB    = 20
	PBCHStartSym  = 4
	PBCHNumSym    = 4
	pbchBits      = PBCHNumPRB * phy.SubcarriersPerPRB * PBCHNumSym * 2 // QPSK
	pbchBlockBits = 256                                                 // MIB payload + CRC, conv coded into pbchBits
)

func pbchREs() []phy.RE {
	out := make([]phy.RE, 0, PBCHNumPRB*phy.SubcarriersPerPRB*PBCHNumSym)
	for sym := PBCHStartSym; sym < PBCHStartSym+PBCHNumSym; sym++ {
		for sc := PBCHStartPRB * phy.SubcarriersPerPRB; sc < (PBCHStartPRB+PBCHNumPRB)*phy.SubcarriersPerPRB; sc++ {
			out = append(out, phy.RE{Symbol: sym, Subcarrier: sc})
		}
	}
	return out
}

// EncodePBCH writes the MIB bytes onto the PBCH region. mibData must fit
// pbchBlockBits-24 bits.
func EncodePBCH(g *phy.Grid, mibData []byte, cellID uint16) error {
	if len(mibData)*8 > pbchBlockBits-24 {
		return fmt.Errorf("pdsch: MIB %d bytes exceeds PBCH budget", len(mibData))
	}
	tb := make([]uint8, pbchBlockBits-24)
	copy(tb, bits.Unpack(mibData, len(mibData)*8))
	block := bits.AttachCRC(bits.CRC24A, tb)
	coded, err := convcode.EncodeAndMatch(block, pbchBits)
	if err != nil {
		return fmt.Errorf("pdsch: PBCH: %w", err)
	}
	bits.ScrambleInPlace(bits.PDCCHScramblingInit(0, cellID)^0x55555, coded)
	syms := modulation.Map(modulation.QPSK, coded)
	for i, re := range pbchREs() {
		g.Set(re.Symbol, re.Subcarrier, syms[i])
	}
	return nil
}

// DecodePBCH attempts to decode a MIB from the PBCH region.
func DecodePBCH(g *phy.Grid, cellID uint16, n0 float64) ([]byte, bool) {
	out, ok := DecodePBCHInto(nil, g, cellID, n0)
	if !ok {
		return nil, false
	}
	return out, true
}

// DecodePBCHInto is DecodePBCH appending the MIB bytes to dst[:0] with
// pooled scratch, mirroring DecodeInto: on failure it returns dst[:0]
// (capacity retained) and false.
func DecodePBCHInto(dst []byte, g *phy.Grid, cellID uint16, n0 float64) ([]byte, bool) {
	dst = dst[:0]
	const nSyms = PBCHNumPRB * phy.SubcarriersPerPRB * PBCHNumSym
	sc := scratchPool.Get().(*decodeScratch)
	defer scratchPool.Put(sc)
	syms := sc.symbols(nSyms)
	i := 0
	for sym := PBCHStartSym; sym < PBCHStartSym+PBCHNumSym; sym++ {
		for s := PBCHStartPRB * phy.SubcarriersPerPRB; s < (PBCHStartPRB+PBCHNumPRB)*phy.SubcarriersPerPRB; s++ {
			syms[i] = g.At(sym, s)
			i++
		}
	}
	llr := modulation.DemapInto(sc.llr, modulation.QPSK, syms, n0)
	sc.llr = llr
	seq := sc.sequence(len(llr))
	bits.GoldSequenceInto(bits.PDCCHScramblingInit(0, cellID)^0x55555, seq)
	bits.DescrambleLLRInPlace(seq, llr)
	decoded := sc.vit.RecoverAndDecode(llr, pbchBlockBits)
	payload, ok := bits.CheckCRC(bits.CRC24A, decoded)
	if !ok {
		return dst, false
	}
	return bits.AppendPacked(dst, payload), true
}
