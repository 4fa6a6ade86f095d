// Package pucch models the Physical Uplink Control Channel carrying
// UCI — Uplink Control Information: scheduling requests, HARQ-ACK
// feedback and CQI reports (paper Fig. 1). Decoding UCI is the paper's
// §7 future-work item ("UCI in the uplink channel ... could be useful
// for uplink data scheduling analysis"); this package plus the scope's
// ProcessUplinkSlot implement it against the simulated uplink carrier.
//
// The format modelled is PUCCH-format-2-like: a UE-specific one-PRB,
// four-symbol resource on the uplink grid, QPSK, convolutionally coded
// UCI with a CRC-11, scrambled with the UE's RNTI so only trackers that
// know the C-RNTI (the gNB, or NR-Scope after MSG 4) can read it.
package pucch

import (
	"fmt"
	"sync"

	"nrscope/internal/bits"
	"nrscope/internal/convcode"
	"nrscope/internal/modulation"
	"nrscope/internal/phy"
)

// Resource geometry: one PRB over four OFDM symbols.
const (
	ResourceSymbols = 4
	resourceREs     = ResourceSymbols * phy.SubcarriersPerPRB // 48
	resourceBits    = resourceREs * 2                         // QPSK
)

// UCI is one uplink control report.
type UCI struct {
	SR     bool // scheduling request: "I have uplink data"
	CQI    int  // channel quality indicator, 0..15
	HasAck bool // an HARQ-ACK field is present
	AckID  int  // HARQ process being acknowledged, 0..15
	Ack    bool // true = ACK, false = NACK
}

// Validate checks field ranges.
func (u UCI) Validate() error {
	if u.CQI < 0 || u.CQI > 15 {
		return fmt.Errorf("pucch: CQI %d", u.CQI)
	}
	if u.AckID < 0 || u.AckID > 15 {
		return fmt.Errorf("pucch: ack harq id %d", u.AckID)
	}
	return nil
}

// payloadBits is the UCI field width (SR + CQI + HasAck + Ack + AckID);
// blockBits adds the CRC-11.
const (
	payloadBits = 1 + 4 + 1 + 1 + 4
	blockBits   = payloadBits + 11
)

// pack serialises the UCI fields MSB first: SR, CQI (4 bits), HasAck,
// Ack, AckID (4 bits).
func (u UCI) pack() []uint8 {
	v := b2u(u.SR)<<10 | uint(u.CQI&15)<<6 | b2u(u.HasAck)<<5 | b2u(u.Ack)<<4 | uint(u.AckID&15)
	out := make([]uint8, payloadBits)
	for i := range out {
		out[i] = uint8(v >> (payloadBits - 1 - i) & 1)
	}
	return out
}

// unpack reads the fields pack wrote from the first payloadBits bits of b.
func unpack(b []uint8) UCI {
	var v uint
	for _, x := range b[:payloadBits] {
		v = v<<1 | uint(x&1)
	}
	return UCI{SR: v>>10 != 0, CQI: int(v >> 6 & 15), HasAck: v>>5&1 != 0, Ack: v>>4&1 != 0, AckID: int(v & 15)}
}

func b2u(b bool) uint {
	if b {
		return 1
	}
	return 0
}

// ResourcePRB returns the UE's PUCCH resource block. Real cells assign
// resources via RRC; with the Setup identical across UEs (paper §3.1.2)
// the assignment here is the deterministic hash both the gNB and a
// passive observer can compute from the C-RNTI alone.
func ResourcePRB(rnti uint16, carrierPRBs int) int {
	return int(rnti) % carrierPRBs
}

// resourceREsFor enumerates the REs of a UE's PUCCH resource.
func resourceREsFor(prb int) []phy.RE {
	out := make([]phy.RE, 0, resourceREs)
	for sym := 0; sym < ResourceSymbols; sym++ {
		for off := 0; off < phy.SubcarriersPerPRB; off++ {
			out = append(out, phy.RE{Symbol: sym, Subcarrier: prb*phy.SubcarriersPerPRB + off})
		}
	}
	return out
}

// cinit derives the UCI scrambling sequence seed from the UE identity.
func cinit(rnti, cellID uint16) uint32 {
	return (uint32(rnti)<<14 ^ uint32(cellID) ^ 0x2BAD) & 0x7FFFFFFF
}

// Encode writes a UCI report onto the uplink grid at the UE's resource.
func Encode(g *phy.Grid, u UCI, rnti, cellID uint16) error {
	if err := u.Validate(); err != nil {
		return err
	}
	block := bits.AttachCRC(bits.CRC11, u.pack())
	coded, err := convcode.EncodeAndMatch(block, resourceBits)
	if err != nil {
		return fmt.Errorf("pucch: %w", err)
	}
	bits.ScrambleInPlace(cinit(rnti, cellID), coded)
	syms := modulation.Map(modulation.QPSK, coded)
	prb := ResourcePRB(rnti, g.NumPRB)
	for i, re := range resourceREsFor(prb) {
		g.Set(re.Symbol, re.Subcarrier, syms[i])
	}
	return nil
}

// EnergyThreshold gates decoding: an empty resource (noise only) is
// skipped without spending a Viterbi pass.
const EnergyThreshold = 0.5

// ResourceEnergy measures the mean RE energy of a UE's resource: the
// value the decoders gate on, which they compute in the walk that
// gathers the resource's symbols.
func ResourceEnergy(g *phy.Grid, rnti uint16) float64 {
	base := ResourcePRB(rnti, g.NumPRB) * phy.SubcarriersPerPRB
	var e float64
	for sym := 0; sym < ResourceSymbols; sym++ {
		for off := 0; off < phy.SubcarriersPerPRB; off++ {
			v := g.At(sym, base+off)
			e += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	return e / resourceREs
}

// Resource is what decoding one UE's UCI needs that is fixed for the UE:
// its C-RNTI, which places the resource block, and the scrambling
// sequence of its (C-RNTI, cell). A tracker computes it once per UE.
type Resource struct {
	RNTI uint16
	seq  [resourceBits]uint8
}

// NewResource computes a UE's resource in cell cellID.
func NewResource(rnti, cellID uint16) Resource {
	r := Resource{RNTI: rnti}
	bits.GoldSequenceInto(cinit(rnti, cellID), r.seq[:])
	return r
}

// Workspace is the scratch of UCI decoding: the resource's symbols, their
// LLRs and the Viterbi decoder's workspace. The zero value is ready to
// use; a Workspace is not safe for concurrent use.
type Workspace struct {
	syms [resourceREs]complex128
	llr  [resourceBits]float64
	vit  convcode.Workspace
}

// Decode reads the UCI of the UE whose resource is r from the uplink
// grid; see the package-level Decode. It allocates nothing once the
// Viterbi workspace has grown.
func (w *Workspace) Decode(g *phy.Grid, r *Resource, n0 float64) (UCI, bool) {
	if !w.gather(g, r.RNTI) {
		return UCI{}, false
	}
	return w.decode(&r.seq, n0)
}

// gather copies the UE's resource off the grid, summing the RE energy in
// the same walk, and reports whether the mean energy passes
// EnergyThreshold (the same float ResourceEnergy computes).
func (w *Workspace) gather(g *phy.Grid, rnti uint16) bool {
	width := g.NumPRB * phy.SubcarriersPerPRB
	base := ResourcePRB(rnti, g.NumPRB) * phy.SubcarriersPerPRB
	re := g.Samples()
	var e float64
	for sym := 0; sym < ResourceSymbols; sym++ {
		row := re[sym*width+base : sym*width+base+phy.SubcarriersPerPRB]
		dst := w.syms[sym*phy.SubcarriersPerPRB : (sym+1)*phy.SubcarriersPerPRB]
		for i, v := range row {
			dst[i] = v
			e += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	return e/resourceREs >= EnergyThreshold
}

// decode demaps, descrambles and decodes the gathered symbols.
func (w *Workspace) decode(seq *[resourceBits]uint8, n0 float64) (UCI, bool) {
	llr := modulation.DemapInto(w.llr[:0], modulation.QPSK, w.syms[:], n0)
	bits.DescrambleLLRInPlace(seq[:], llr)
	payload, ok := bits.CheckCRC(bits.CRC11, w.vit.RecoverAndDecode(llr, blockBits))
	if !ok {
		return UCI{}, false
	}
	// Both 4-bit fields are in range by construction.
	return unpack(payload), true
}

// decodeScratch is one package-level Decode's workspace and the
// scrambling sequence it computes, pooled so the call allocates nothing
// at steady state.
type decodeScratch struct {
	ws  Workspace
	seq [resourceBits]uint8
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// Decode attempts to read a UE's UCI from the uplink grid. ok is false
// when the resource is empty or the CRC fails. It allocates nothing at
// steady state. It is Workspace.Decode with pooled scratch and the
// scrambling sequence computed per call; trackers that decode the same
// UEs slot after slot hold a Workspace and a Resource per UE instead.
// Kept: bench/'s ul16 layer probe times it.
func Decode(g *phy.Grid, rnti, cellID uint16, n0 float64) (UCI, bool) {
	sc := scratchPool.Get().(*decodeScratch)
	defer scratchPool.Put(sc)
	if !sc.ws.gather(g, rnti) {
		return UCI{}, false
	}
	bits.GoldSequenceInto(cinit(rnti, cellID), sc.seq[:])
	return sc.ws.decode(&sc.seq, n0)
}
