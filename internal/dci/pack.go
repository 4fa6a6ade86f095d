package dci

import (
	"encoding/binary"
	"fmt"

	"nrscope/internal/bits"
	"nrscope/internal/phy"
)

// Field layouts. Every format starts with the 1-bit format identifier
// (0 = uplink, 1 = downlink, TS 38.212 §7.3.1.1.1). The fallback pair
// (0_0, 1_0) is padded to a common size so a blind decoder can try both
// interpretations of the same candidate, as a real UE does; the
// non-fallback pair (0_1, 1_1) is likewise aligned.

// Size returns the payload size in bits of the format under the
// configuration (before the 24-bit CRC).
func Size(f Format, c Config) int {
	switch f {
	case Format10, Format00:
		return fallbackSize(c)
	case Format11:
		return rawSize11(c)
	case Format01:
		// Aligned up to 1_1 so both share one blind decode.
		return rawSize11(c)
	default:
		panic(fmt.Sprintf("dci: unknown format %d", int(f)))
	}
}

// rawSize10 is the natural (unpadded) 1_0 size.
func rawSize10(c Config) int {
	return 1 + // format id
		phy.RIVBits(c.BWPPRBs) +
		c.timeAllocBits() +
		1 + // VRB-to-PRB
		5 + // MCS
		1 + // NDI
		2 + // RV
		c.harqBits() +
		2 + // DAI
		2 + // TPC
		3 + // PUCCH resource
		3 // HARQ feedback timing
}

// rawSize00 is the natural (unpadded) 0_0 size.
func rawSize00(c Config) int {
	return 1 + // format id
		phy.RIVBits(c.BWPPRBs) +
		c.timeAllocBits() +
		1 + // frequency hopping
		5 + // MCS
		1 + // NDI
		2 + // RV
		c.harqBits() +
		2 // TPC
}

func fallbackSize(c Config) int {
	a, b := rawSize10(c), rawSize00(c)
	if a > b {
		return a
	}
	return b
}

// rawSize11 is the 1_1 size; 0_1 is padded up to it.
func rawSize11(c Config) int {
	return 1 + // format id
		phy.RIVBits(c.BWPPRBs) +
		c.timeAllocBits() +
		1 + // VRB-to-PRB / frequency hopping
		5 + 1 + 2 + // MCS, NDI, RV
		c.harqBits() +
		2 + 2 + // DAI, TPC
		3 + 3 + // PUCCH resource, HARQ timing
		4 + // antenna ports
		2 + // SRS request
		1 // DMRS sequence initialisation
}

// Pack serialises the DCI into its payload bits (without CRC).
func Pack(d DCI, c Config) ([]uint8, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(c); err != nil {
		return nil, err
	}
	size := Size(d.Format, c)
	w := bits.NewWriter(size)
	rivBits := phy.RIVBits(c.BWPPRBs)
	switch d.Format {
	case Format10:
		w.WriteBool(true)
		w.WriteUint(uint64(d.FreqAlloc), rivBits)
		w.WriteUint(uint64(d.TimeAlloc), c.timeAllocBits())
		w.WriteUint(uint64(d.VRBToPRB), 1)
		w.WriteUint(uint64(d.MCS), 5)
		w.WriteUint(uint64(d.NDI), 1)
		w.WriteUint(uint64(d.RV), 2)
		w.WriteUint(uint64(d.HARQID), c.harqBits())
		w.WriteUint(uint64(d.DAI), 2)
		w.WriteUint(uint64(d.TPC), 2)
		w.WriteUint(uint64(d.PUCCHRes), 3)
		w.WriteUint(uint64(d.HARQTiming), 3)
	case Format00:
		w.WriteBool(false)
		w.WriteUint(uint64(d.FreqAlloc), rivBits)
		w.WriteUint(uint64(d.TimeAlloc), c.timeAllocBits())
		w.WriteUint(uint64(d.FreqHopping), 1)
		w.WriteUint(uint64(d.MCS), 5)
		w.WriteUint(uint64(d.NDI), 1)
		w.WriteUint(uint64(d.RV), 2)
		w.WriteUint(uint64(d.HARQID), c.harqBits())
		w.WriteUint(uint64(d.TPC), 2)
	case Format11, Format01:
		w.WriteBool(d.Format == Format11)
		w.WriteUint(uint64(d.FreqAlloc), rivBits)
		w.WriteUint(uint64(d.TimeAlloc), c.timeAllocBits())
		if d.Format == Format11 {
			w.WriteUint(uint64(d.VRBToPRB), 1)
		} else {
			w.WriteUint(uint64(d.FreqHopping), 1)
		}
		w.WriteUint(uint64(d.MCS), 5)
		w.WriteUint(uint64(d.NDI), 1)
		w.WriteUint(uint64(d.RV), 2)
		w.WriteUint(uint64(d.HARQID), c.harqBits())
		w.WriteUint(uint64(d.DAI), 2)
		w.WriteUint(uint64(d.TPC), 2)
		w.WriteUint(uint64(d.PUCCHRes), 3)
		w.WriteUint(uint64(d.HARQTiming), 3)
		w.WriteUint(uint64(d.Ports), 4)
		w.WriteUint(uint64(d.SRSRequest), 2)
		w.WriteUint(uint64(d.DMRSSeqInit), 1)
	}
	for w.Len() < size {
		w.WriteBit(0) // zero padding up to the aligned size
	}
	return w.Bits(), nil
}

// SizeClass distinguishes the two payload sizes a blind decoder must try:
// fallback (0_0/1_0) and non-fallback (0_1/1_1).
type SizeClass int

// Size classes.
const (
	Fallback SizeClass = iota
	NonFallback
)

// ClassSize returns the payload size of a class.
func ClassSize(sc SizeClass, c Config) int {
	if sc == Fallback {
		return fallbackSize(c)
	}
	return rawSize11(c)
}

// field identifies one DCI field in a FieldTable.
type field int

// DCI fields, in the order Unpack stores them.
const (
	fRIV field = iota
	fTimeAlloc
	fVRBToPRB
	fFreqHopping
	fMCS
	fNDI
	fRV
	fHARQID
	fDAI
	fTPC
	fPUCCHRes
	fHARQTiming
	fPorts
	fSRSRequest
	fDMRSSeqInit
	numFields
)

// span is one field's position in the payload: width bits from bit off,
// MSB first. A field the format does not carry has width 0.
type span struct{ off, width uint8 }

// FieldTable is the field layout of one size class under one Config
// (TS 38.212 §7.3.1): for the uplink and the downlink reading of the
// payload, each field's (offset, width). Unpack reads every field by
// shift and mask from the payload packed into words. The zero
// FieldTable matches nothing; NewFieldTable builds one.
type FieldTable struct {
	class SizeClass
	cfg   Config
	built bool
	err   error // invalid Config: Unpack reports it
	size  int
	ul    [numFields]span
	dl    [numFields]span
}

// NewFieldTable lays out the fields of size class sc under c.
func NewFieldTable(sc SizeClass, c Config) FieldTable {
	t := FieldTable{class: sc, cfg: c, built: true}
	if t.err = c.Validate(); t.err != nil {
		return t
	}
	t.size = ClassSize(sc, c)
	off := 1 // the format identifier
	next := func(width int) span {
		f := span{uint8(off), uint8(width)}
		off += width
		return f
	}
	// The common prefix: both directions of both classes.
	riv, ta, hop := next(phy.RIVBits(c.BWPPRBs)), next(c.timeAllocBits()), next(1)
	mcs, ndi, rv, harq := next(5), next(1), next(2), next(c.harqBits())
	for _, tab := range []*[numFields]span{&t.ul, &t.dl} {
		tab[fRIV], tab[fTimeAlloc], tab[fMCS], tab[fNDI], tab[fRV], tab[fHARQID] = riv, ta, mcs, ndi, rv, harq
	}
	t.dl[fVRBToPRB], t.ul[fFreqHopping] = hop, hop
	rest := off
	if sc == Fallback {
		t.ul[fTPC] = next(2) // 0_0 ends with TPC
		off = rest
	}
	// 1_0, 1_1 and 0_1 continue alike; only the non-fallback pair
	// carries the last three fields.
	dai, tpc, pucch, timing := next(2), next(2), next(3), next(3)
	t.dl[fDAI], t.dl[fTPC], t.dl[fPUCCHRes], t.dl[fHARQTiming] = dai, tpc, pucch, timing
	if sc == NonFallback {
		t.ul[fDAI], t.ul[fTPC], t.ul[fPUCCHRes], t.ul[fHARQTiming] = dai, tpc, pucch, timing
		ports, srs, dmrs := next(4), next(2), next(1)
		for _, tab := range []*[numFields]span{&t.ul, &t.dl} {
			tab[fPorts], tab[fSRSRequest], tab[fDMRSSeqInit] = ports, srs, dmrs
		}
	}
	return t
}

// Matches reports whether t is the table of size class sc under c.
func (t *FieldTable) Matches(sc SizeClass, c Config) bool {
	return t.built && t.class == sc && t.cfg == c
}

// Unpack parses a DCI payload of the given size class. The format
// identifier bit selects uplink vs downlink layout. The payload holds
// one bit (0 or 1) per element and its length must equal ClassSize(sc,
// c).
func Unpack(payload []uint8, sc SizeClass, c Config) (DCI, error) {
	t := NewFieldTable(sc, c)
	return t.Unpack(payload)
}

// Unpack is the package-level Unpack for the table's class and Config.
func (t *FieldTable) Unpack(payload []uint8) (DCI, error) {
	if t.err != nil {
		return DCI{}, t.err
	}
	if len(payload) != t.size {
		return DCI{}, fmt.Errorf("dci: payload %d bits, class needs %d", len(payload), t.size)
	}
	if len(payload) > maxPayload {
		return DCI{}, fmt.Errorf("dci: payload %d bits exceeds %d", len(payload), maxPayload)
	}
	var w [maxPayload / 64]uint64 // bit i is bit 63-i%64 of w[i/64]
	for i := 0; i < len(payload); {
		if len(payload)-i >= 8 {
			// Byte j of the little-endian word holds bit i+j; the
			// multiplier gathers the eight into one byte, MSB first.
			b := (binary.LittleEndian.Uint64(payload[i:]) & 0x0101010101010101) * 0x8040201008040201 >> 56
			w[i/64] |= b << (56 - i%64)
			i += 8
			continue
		}
		w[i/64] |= uint64(payload[i]&1) << (63 - i%64)
		i++
	}
	dl := w[0]>>63 == 1
	tab := &t.ul
	var d DCI
	switch {
	case t.class == Fallback && dl:
		d.Format, tab = Format10, &t.dl
	case t.class == Fallback:
		d.Format = Format00
	case dl:
		d.Format, tab = Format11, &t.dl
	default:
		d.Format = Format01
	}
	var v [numFields]uint64
	for f, sp := range tab {
		v[f] = read(&w, sp)
	}
	d.FreqAlloc = uint32(v[fRIV])
	d.TimeAlloc = int(v[fTimeAlloc])
	d.VRBToPRB = int(v[fVRBToPRB])
	d.FreqHopping = int(v[fFreqHopping])
	d.MCS = int(v[fMCS])
	d.NDI = uint8(v[fNDI])
	d.RV = int(v[fRV])
	d.HARQID = int(v[fHARQID])
	d.DAI = int(v[fDAI])
	d.TPC = int(v[fTPC])
	d.PUCCHRes = int(v[fPUCCHRes])
	d.HARQTiming = int(v[fHARQTiming])
	d.Ports = int(v[fPorts])
	d.SRSRequest = int(v[fSRSRequest])
	d.DMRSSeqInit = int(v[fDMRSSeqInit])
	if err := d.Validate(t.cfg); err != nil {
		return DCI{}, fmt.Errorf("dci: unpacked invalid DCI: %w", err)
	}
	return d, nil
}

// maxPayload bounds the payload Unpack packs: every Config whose RIV
// field fits 64 bits stays under it.
const maxPayload = 128

// read extracts field sp from the packed payload w.
func read(w *[maxPayload / 64]uint64, sp span) uint64 {
	if sp.width == 0 {
		return 0
	}
	i, s := sp.off/64, sp.off%64
	v := w[i] << s
	if s != 0 && i+1 < uint8(len(w)) {
		v |= w[i+1] >> (64 - s)
	}
	return v >> (64 - sp.width)
}
