package bits

import (
	"bytes"
	"math/rand"
	"testing"

	"nrscope/internal/raceflag"
)

// TestMatchDCICRCAgreesWithCheck: the allocation-free matcher must agree
// with CheckDCICRC on passing blocks, corrupted blocks and wrong RNTIs.
func TestMatchDCICRCAgreesWithCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		payload := make([]uint8, 1+rng.Intn(120))
		for i := range payload {
			payload[i] = uint8(rng.Intn(2))
		}
		rnti := uint16(rng.Intn(1 << 16))
		block := AttachDCICRC(payload, rnti)
		if !MatchDCICRC(block, rnti) {
			t.Fatalf("trial %d: fresh block rejected", trial)
		}
		if wrong := rnti ^ uint16(1+rng.Intn(1<<16-1)); MatchDCICRC(block, wrong) {
			t.Fatalf("trial %d: wrong RNTI %#x accepted", trial, wrong)
		}
		// Any single-bit corruption must flip both verifiers the same way.
		pos := rng.Intn(len(block))
		block[pos] ^= 1
		_, want := CheckDCICRC(block, rnti)
		if got := MatchDCICRC(block, rnti); got != want {
			t.Fatalf("trial %d: corrupted bit %d: Match %v, Check %v", trial, pos, got, want)
		}
	}
	if MatchDCICRC(make([]uint8, 23), 1) {
		t.Error("short block accepted")
	}
}

// referenceDCIBlock builds payload || scrambled CRC24 from the bit-serial
// CRC alone: the oracle the table-driven kernel is held to.
func referenceDCIBlock(payload []uint8, rnti uint16) []uint8 {
	ones := make([]uint8, 24, 24+len(payload))
	for i := range ones {
		ones[i] = 1
	}
	crc := CRC(CRC24C, append(ones, payload...))
	for i := 0; i < 16; i++ {
		crc[8+i] ^= uint8(rnti>>uint(15-i)) & 1
	}
	return append(append([]uint8(nil), payload...), crc...)
}

// TestDCICRCKernelMatchesBitSerial holds the table-driven kernel bit-exact
// to the bit-serial CRC for every payload length a DCI can have (the byte
// loop, its 0-7 bit tail, and the empty payload that is the folded-ones
// initial register alone), through all four entry points.
func TestDCICRCKernelMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for n := 0; n <= 140; n++ {
		for trial := 0; trial < 8; trial++ {
			payload := make([]uint8, n)
			for i := range payload {
				payload[i] = uint8(rng.Intn(2))
			}
			rnti := uint16(rng.Intn(1 << 16))
			want := referenceDCIBlock(payload, rnti)
			block := AttachDCICRC(payload, rnti)
			if !bytes.Equal(block, want) {
				t.Fatalf("len %d: AttachDCICRC differs from the bit-serial CRC", n)
			}
			got, r, ok := RecoverRNTI(block)
			if !ok || r != rnti || !bytes.Equal(got, payload) {
				t.Fatalf("len %d: RecoverRNTI = (%v, %#x, %v), want rnti %#x", n, got, r, ok, rnti)
			}
			if got, ok := CheckDCICRC(block, rnti); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("len %d: CheckDCICRC rejected a fresh block", n)
			}
			wrong := rnti ^ uint16(1+rng.Intn(1<<16-1))
			if _, ok := CheckDCICRC(block, wrong); ok || MatchDCICRC(block, wrong) {
				t.Fatalf("len %d: wrong RNTI %#x accepted", n, wrong)
			}
			// CRC24C detects every single-bit error: under the true RNTI
			// the block is rejected, and recovery never returns that RNTI.
			for pos := range block {
				block[pos] ^= 1
				if _, ok := CheckDCICRC(block, rnti); ok || MatchDCICRC(block, rnti) {
					t.Fatalf("len %d: bit %d corrupted, still accepted", n, pos)
				}
				if _, r, ok := RecoverRNTI(block); ok && r == rnti {
					t.Fatalf("len %d: bit %d corrupted, RNTI still recovered", n, pos)
				}
				block[pos] ^= 1
			}
		}
	}
	for n := 0; n < 24; n++ {
		short := make([]uint8, n)
		if _, _, ok := RecoverRNTI(short); ok {
			t.Errorf("RecoverRNTI accepted a %d-bit block", n)
		}
		if _, ok := CheckDCICRC(short, 0); ok || MatchDCICRC(short, 0) {
			t.Errorf("%d-bit block accepted", n)
		}
	}
}

func TestMatchDCICRCZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	payload := make([]uint8, 67)
	block := AttachDCICRC(payload, 0x4601)
	if n := testing.AllocsPerRun(100, func() {
		_, rnti, ok := RecoverRNTI(block)
		_, checked := CheckDCICRC(block, 0x4601)
		if !ok || rnti != 0x4601 || !checked || !MatchDCICRC(block, 0x4601) {
			t.Fatal("match failed")
		}
	}); n != 0 {
		t.Errorf("RecoverRNTI+CheckDCICRC+MatchDCICRC: %.1f allocs/op, want 0", n)
	}
}
