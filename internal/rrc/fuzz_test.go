package rrc

import (
	"reflect"
	"testing"

	"nrscope/internal/dci"
	"nrscope/internal/phy"
)

// fuzzRoundTrip is the property every RRC fuzz target checks: decoding
// arbitrary bytes never panics, and a message that decodes re-encodes to
// bytes that decode to the same value and re-encode to the same bytes.
func fuzzRoundTrip[M any](t *testing.T, data []byte, decode func([]byte) (M, error), encode func(M) ([]byte, error)) {
	m, err := decode(data)
	if err != nil {
		return
	}
	enc, err := encode(m)
	if err != nil {
		t.Fatalf("decoded %+v does not re-encode: %v", m, err)
	}
	again, err := decode(enc)
	if err != nil {
		t.Fatalf("re-encoding of %+v does not decode: %v", m, err)
	}
	if !reflect.DeepEqual(again, m) {
		t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, m)
	}
	if enc2, err := encode(again); err != nil || !reflect.DeepEqual(enc2, enc) {
		t.Fatalf("second encoding %x (%v) differs from the first %x", enc2, err, enc)
	}
}

// addSeeds adds each encoding and two corruptions of it: one bit flipped
// in the middle, and the last byte dropped.
func addSeeds(f *testing.F, encs ...[]byte) {
	for _, enc := range encs {
		f.Add(enc)
		flipped := append([]byte(nil), enc...)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
		f.Add(enc[:len(enc)-1])
	}
}

// must returns an encoder's bytes, failing the target on its error.
func must(f *testing.F) func([]byte, error) []byte {
	return func(enc []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return enc
	}
}

func FuzzDecodeMIB(f *testing.F) {
	m := sampleMIB()
	barred := m
	barred.CellBarred, barred.SFN, barred.Coreset0Duration = true, 1023, 2
	addSeeds(f, must(f)(m.Encode()), must(f)(barred.Encode()))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, data, DecodeMIB, MIB.Encode)
	})
}

func FuzzDecodeSIB1(f *testing.F) {
	s := sampleSIB1()
	fdd := s
	fdd.TDD = phy.FDD()
	addSeeds(f, must(f)(s.Encode()), must(f)(fdd.Encode()))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, data, DecodeSIB1, SIB1.Encode)
	})
}

func FuzzDecodeRAR(f *testing.F) {
	addSeeds(f,
		must(f)(RAR{TCRNTI: 0x4601, TimingAdvance: 31, MSG3SlotDelta: 6}.Encode()),
		must(f)(RAR{TCRNTI: dci.MaxCRNTI, TimingAdvance: 4095, MSG3SlotDelta: 64}.Encode()))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, data, DecodeRAR, RAR.Encode)
	})
}

func FuzzDecodeSetup(f *testing.F) {
	s := sampleSetup()
	other := s
	other.NonFallback, other.XOverhead, other.MaxLayers = false, 18, 4
	addSeeds(f, must(f)(s.Encode()), must(f)(other.Encode()))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, data, DecodeSetup, Setup.Encode)
	})
}
