package bits

import "encoding/binary"

// CRC generator polynomials from TS 38.212 §5.1. The polynomials are
// written with the leading (degree) term implicit, low coefficients in the
// low bits: e.g. CRC24A g(D) = D^24 + D^23 + D^18 + D^17 + D^14 + D^11 +
// D^10 + D^7 + D^6 + D^5 + D^4 + D^3 + D + 1 -> 0x864CFB.
const (
	polyCRC24A = 0x864CFB // transport-block CRC (PDSCH)
	polyCRC24C = 0xB2B117 // PDCCH / polar CRC
	polyCRC16  = 0x1021   // CRC16 (PBCH payloads < 20 bits in LTE; kept for tooling)
	polyCRC11  = 0x621    // PUCCH polar CRC
)

// CRCKind selects one of the 3GPP CRC variants.
type CRCKind int

// Supported CRC variants.
const (
	CRC24A CRCKind = iota
	CRC24C
	CRC16
	CRC11
)

// Len returns the CRC length in bits.
func (k CRCKind) Len() int {
	switch k {
	case CRC24A, CRC24C:
		return 24
	case CRC16:
		return 16
	case CRC11:
		return 11
	default:
		panic("bits: unknown CRC kind")
	}
}

func (k CRCKind) poly() uint32 {
	switch k {
	case CRC24A:
		return polyCRC24A
	case CRC24C:
		return polyCRC24C
	case CRC16:
		return polyCRC16
	case CRC11:
		return polyCRC11
	default:
		panic("bits: unknown CRC kind")
	}
}

// String implements fmt.Stringer.
func (k CRCKind) String() string {
	switch k {
	case CRC24A:
		return "CRC24A"
	case CRC24C:
		return "CRC24C"
	case CRC16:
		return "CRC16"
	case CRC11:
		return "CRC11"
	default:
		return "CRC?"
	}
}

// CRC computes the CRC of an unpacked bit string, returned as a bit slice
// of k.Len() bits, MSB-first. Registers start at zero; DCI ones-prepending
// (TS 38.212 §7.3.2 prepends 24 ones before the CRC24C of a DCI payload)
// is the caller's job, see AttachDCICRC.
func CRC(k CRCKind, data []uint8) []uint8 {
	n := k.Len()
	poly := k.poly()
	var reg uint32
	mask := (uint32(1) << uint(n)) - 1
	for _, b := range data {
		fb := (reg>>uint(n-1))&1 ^ uint32(b&1)
		reg = (reg << 1) & mask
		if fb != 0 {
			reg ^= poly & mask
		}
	}
	return FromUint(uint64(reg), n)
}

// AttachCRC appends CRC(k, data) to data and returns the combined slice.
func AttachCRC(k CRCKind, data []uint8) []uint8 {
	crc := CRC(k, data)
	out := make([]uint8, 0, len(data)+len(crc))
	out = append(out, data...)
	out = append(out, crc...)
	return out
}

// CheckCRC verifies that the trailing k.Len() bits of block are the CRC of
// the preceding bits. It returns the payload (aliasing block) and whether
// the check passed. It allocates nothing: the CRC register bits are
// compared against the trailing bits directly, so per-slot decode paths
// (PDSCH transport blocks, PUCCH UCI) can run one check per candidate
// without heap traffic.
func CheckCRC(k CRCKind, block []uint8) (payload []uint8, ok bool) {
	n := k.Len()
	if len(block) < n {
		return nil, false
	}
	payload = block[:len(block)-n]
	poly := k.poly()
	mask := uint32(1)<<uint(n) - 1
	var reg uint32
	for _, b := range payload {
		fb := (reg>>uint(n-1))&1 ^ uint32(b&1)
		reg = (reg << 1) & mask
		if fb != 0 {
			reg ^= poly & mask
		}
	}
	got := block[len(block)-n:]
	for i := 0; i < n; i++ {
		if uint8(reg>>uint(n-1-i))&1 != got[i]&1 {
			return payload, false
		}
	}
	return payload, true
}

// crc24cTab[b] is the CRC24C register after shifting the byte b, MSB
// first, through a zero register.
var crc24cTab = func() (tab [256]uint32) {
	for b := range tab {
		reg := uint32(b) << 16
		for i := 0; i < 8; i++ {
			reg <<= 1
			if reg&(1<<24) != 0 {
				reg ^= 1<<24 | polyCRC24C
			}
		}
		tab[b] = reg
	}
	return tab
}()

// dciCRCInit is the CRC24C register after the 24 one-bits TS 38.212
// §7.3.2 prepends to a DCI payload before CRC computation. The ones are
// not transmitted; they only seed the CRC so that all-zero payloads still
// produce a non-trivial CRC.
const dciCRCInit = 0x32E241

// dciCRC returns CRC24C over 24 ones followed by the payload (unpacked
// hard bits), the register's MSB being the first CRC bit. It is the one
// DCI CRC kernel: eight payload bits are gathered into a byte with one
// multiply and advance the register by one table step.
func dciCRC(payload []uint8) uint32 {
	reg := uint32(dciCRCInit)
	for ; len(payload) >= 8; payload = payload[8:] {
		// Byte i of the little-endian word holds bit i; the multiplier
		// moves it to bit 63-i without carries between the eight terms.
		b := (binary.LittleEndian.Uint64(payload) & 0x0101010101010101) * 0x8040201008040201 >> 56
		reg = reg<<8&0xFFFFFF ^ crc24cTab[byte(reg>>16)^byte(b)]
	}
	for _, b := range payload {
		reg <<= 1
		if (reg>>24^uint32(b))&1 != 0 {
			reg ^= polyCRC24C
		}
		reg &= 0xFFFFFF
	}
	return reg
}

// splitDCIBlock separates block (payload || scrambled CRC24) into the
// payload, aliasing block, and the XOR of the received CRC with the one
// recomputed from the payload: zero in the 8 high bits when the block
// decoded correctly, the scrambling RNTI in the low 16.
func splitDCIBlock(block []uint8) (payload []uint8, diff uint32, ok bool) {
	if len(block) < 24 {
		return nil, 0, false
	}
	payload = block[:len(block)-24]
	return payload, uint32(ToUint(block[len(block)-24:])) ^ dciCRC(payload), true
}

// AttachDCICRC attaches the PDCCH CRC to a DCI payload: CRC24C is computed
// over 24 prepended ones plus the payload, then the last 16 CRC bits are
// XOR-scrambled with the 16-bit RNTI (TS 38.212 §7.3.2). The returned
// slice is payload || scrambledCRC24.
func AttachDCICRC(payload []uint8, rnti uint16) []uint8 {
	out := make([]uint8, 0, len(payload)+24)
	out = append(out, payload...)
	return append(out, FromUint(uint64(dciCRC(payload)^uint32(rnti)), 24)...)
}

// CheckDCICRC verifies a received DCI block (payload || scrambled CRC24)
// against a hypothesised RNTI. It returns the payload (aliasing block) and
// whether the CRC matched under that RNTI.
func CheckDCICRC(block []uint8, rnti uint16) (payload []uint8, ok bool) {
	payload, diff, ok := splitDCIBlock(block)
	return payload, ok && diff == uint32(rnti)
}

// MatchDCICRC is CheckDCICRC without the payload return: one RNTI
// hypothesis against one block. The blind decoder does not test
// hypotheses — it recovers the RNTI once per decoded position
// (RecoverRNTI) and looks it up — so this is for callers that hold a
// single RNTI.
func MatchDCICRC(block []uint8, rnti uint16) bool {
	_, ok := CheckDCICRC(block, rnti)
	return ok
}

// RecoverRNTI implements the sniffer trick the paper inherits from 4G
// tools (§3.1.2): given a received DCI block whose CRC is scrambled with
// an unknown RNTI, locally recompute the CRC of the payload and XOR it
// with the received CRC. If the block decoded correctly, the upper 8 CRC
// bits (which the RNTI does not touch) match — that is the verification —
// and the XOR of the lower 16 bits *is* the RNTI.
func RecoverRNTI(block []uint8) (payload []uint8, rnti uint16, ok bool) {
	payload, diff, ok := splitDCIBlock(block)
	if !ok || diff>>16 != 0 {
		return payload, 0, false
	}
	return payload, uint16(diff), true
}
