package dci

import (
	"fmt"
	"math/rand"
	"testing"

	"nrscope/internal/bits"
	"nrscope/internal/phy"
)

// unpackOracle is Unpack read field by field through bits.Reader: the
// definitional parse the field-table Unpack must reproduce exactly.
func unpackOracle(payload []uint8, sc SizeClass, c Config) (DCI, error) {
	if err := c.Validate(); err != nil {
		return DCI{}, err
	}
	want := ClassSize(sc, c)
	if len(payload) != want {
		return DCI{}, fmt.Errorf("dci: payload %d bits, class needs %d", len(payload), want)
	}
	r := bits.NewReader(payload)
	dl := r.ReadBool()
	rivBits := phy.RIVBits(c.BWPPRBs)
	var d DCI
	switch {
	case sc == Fallback && dl:
		d.Format = Format10
		d.FreqAlloc = uint32(r.ReadUint(rivBits))
		d.TimeAlloc = int(r.ReadUint(c.timeAllocBits()))
		d.VRBToPRB = int(r.ReadUint(1))
		d.MCS = int(r.ReadUint(5))
		d.NDI = uint8(r.ReadUint(1))
		d.RV = int(r.ReadUint(2))
		d.HARQID = int(r.ReadUint(c.harqBits()))
		d.DAI = int(r.ReadUint(2))
		d.TPC = int(r.ReadUint(2))
		d.PUCCHRes = int(r.ReadUint(3))
		d.HARQTiming = int(r.ReadUint(3))
	case sc == Fallback:
		d.Format = Format00
		d.FreqAlloc = uint32(r.ReadUint(rivBits))
		d.TimeAlloc = int(r.ReadUint(c.timeAllocBits()))
		d.FreqHopping = int(r.ReadUint(1))
		d.MCS = int(r.ReadUint(5))
		d.NDI = uint8(r.ReadUint(1))
		d.RV = int(r.ReadUint(2))
		d.HARQID = int(r.ReadUint(c.harqBits()))
		d.TPC = int(r.ReadUint(2))
	default:
		if dl {
			d.Format = Format11
		} else {
			d.Format = Format01
		}
		d.FreqAlloc = uint32(r.ReadUint(rivBits))
		d.TimeAlloc = int(r.ReadUint(c.timeAllocBits()))
		hop := int(r.ReadUint(1))
		if dl {
			d.VRBToPRB = hop
		} else {
			d.FreqHopping = hop
		}
		d.MCS = int(r.ReadUint(5))
		d.NDI = uint8(r.ReadUint(1))
		d.RV = int(r.ReadUint(2))
		d.HARQID = int(r.ReadUint(c.harqBits()))
		d.DAI = int(r.ReadUint(2))
		d.TPC = int(r.ReadUint(2))
		d.PUCCHRes = int(r.ReadUint(3))
		d.HARQTiming = int(r.ReadUint(3))
		d.Ports = int(r.ReadUint(4))
		d.SRSRequest = int(r.ReadUint(2))
		d.DMRSSeqInit = int(r.ReadUint(1))
	}
	if err := r.Err(); err != nil {
		return DCI{}, err
	}
	if err := d.Validate(c); err != nil {
		return DCI{}, fmt.Errorf("dci: unpacked invalid DCI: %w", err)
	}
	return d, nil
}

// checkUnpack compares Unpack with the oracle on one input: the same DCI
// and the same error text.
func checkUnpack(t *testing.T, payload []uint8, sc SizeClass, c Config) {
	t.Helper()
	want, wantErr := unpackOracle(payload, sc, c)
	got, err := Unpack(payload, sc, c)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("class %d %+v, %d bits: error %v, oracle %v", sc, c, len(payload), err, wantErr)
	}
	if got != want {
		t.Fatalf("class %d %+v, payload %v:\n got %+v\nwant %+v", sc, c, payload, got, want)
	}
}

// fuzzPayload builds an n-bit payload (n >= 0) cycling through data's
// bits, LSB of each byte first.
func fuzzPayload(data []byte, n int) []uint8 {
	p := make([]uint8, max(n, 0))
	if len(data) == 0 {
		return p
	}
	for i := range p {
		p[i] = data[i/8%len(data)] >> (i % 8) & 1
	}
	return p
}

// FuzzUnpackMatchesOracle holds the field-table Unpack to the
// bit-by-bit oracle over random payloads of both size classes, under
// Configs across BWP widths, time-allocation rows and HARQ counts
// (invalid ones included), at the class size and a bit or two off it.
func FuzzUnpackMatchesOracle(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xa5, 0x5a, 0x3c, 0xc3, 0x0f, 0xf0, 0x81, 0x7e}, uint8(1), uint16(51), uint8(8), uint8(16), int8(0))
	f.Add([]byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}, uint8(0), uint16(273), uint8(16), uint8(8), int8(0))
	f.Add([]byte{0xfe}, uint8(0), uint16(24), uint8(1), uint8(1), int8(1))
	f.Add([]byte{}, uint8(1), uint16(0), uint8(17), uint8(0), int8(-1))
	f.Add([]byte{0x55, 0xaa}, uint8(1), uint16(65535), uint8(5), uint8(3), int8(0))
	f.Fuzz(func(t *testing.T, data []byte, class uint8, bwp uint16, rows, harq uint8, adj int8) {
		sc := SizeClass(class & 1)
		c := Config{BWPPRBs: int(bwp), TimeAllocRows: int(rows % 18), MaxHARQ: int(harq % 18)}
		n := int(adj) % 3
		if c.Validate() == nil {
			n += ClassSize(sc, c)
		}
		checkUnpack(t, fuzzPayload(data, n), sc, c)
	})
}

// TestUnpackMatchesOracle is the fuzzer's property on fixed sweeps:
// every BWP width 1..275 with random rows, HARQ counts and payloads;
// then, for BWP widths whose RIV fields take every width from 17 to 34
// bits, every row count and HARQ count, so that each field in turn
// straddles the payload's first 64-bit word. Both classes throughout.
func TestUnpackMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	data := make([]byte, 16)
	check := func(sc SizeClass, c Config) {
		rng.Read(data)
		checkUnpack(t, fuzzPayload(data, ClassSize(sc, c)), sc, c)
	}
	for bwp := 1; bwp <= 275; bwp++ {
		for trial := 0; trial < 8; trial++ {
			check(SizeClass(trial&1), Config{BWPPRBs: bwp, TimeAllocRows: 1 + rng.Intn(16), MaxHARQ: 1 + rng.Intn(16)})
		}
	}
	for k := 9; k <= 17; k++ {
		for _, bwp := range []int{1<<k - 1, 1 << k} { // RIV fields of 2k-1 and 2k bits
			for rows := 1; rows <= 16; rows++ {
				for harq := 1; harq <= 16; harq++ {
					for trial := 0; trial < 4; trial++ {
						check(SizeClass(trial&1), Config{BWPPRBs: bwp, TimeAllocRows: rows, MaxHARQ: harq})
					}
				}
			}
		}
	}
}
