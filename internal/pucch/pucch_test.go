package pucch

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nrscope/internal/bits"
	"nrscope/internal/channel"
	"nrscope/internal/phy"
)

const cellID = 500

func addNoise(g *phy.Grid, snrdB float64, rng *rand.Rand) float64 {
	n0 := channel.SNRdBToN0(snrdB)
	sigma := math.Sqrt(n0 / 2)
	s := g.Samples()
	for i := range s {
		s[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return n0
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(rnti uint16, cqi, ackID uint8, sr, hasAck, ack bool) bool {
		if rnti == 0 {
			rnti = 1
		}
		u := UCI{SR: sr, CQI: int(cqi) % 16, HasAck: hasAck, Ack: ack, AckID: int(ackID) % 16}
		g := phy.NewGrid(51)
		if err := Encode(g, u, rnti, cellID); err != nil {
			return false
		}
		got, ok := Decode(g, rnti, cellID, 1e-4)
		return ok && got == u
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDecodeUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ok := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		g := phy.NewGrid(51)
		u := UCI{SR: true, CQI: 11, HasAck: true, Ack: i%2 == 0, AckID: i % 16}
		if err := Encode(g, u, 0x4601, cellID); err != nil {
			t.Fatal(err)
		}
		n0 := addNoise(g, 8, rng)
		if got, pass := Decode(g, 0x4601, cellID, n0); pass && got == u {
			ok++
		}
	}
	if ok < trials*8/10 {
		t.Errorf("decoded %d/%d at 8 dB", ok, trials)
	}
}

func TestDecodeEmptyResourceSkipped(t *testing.T) {
	g := phy.NewGrid(51)
	if _, ok := Decode(g, 0x4601, cellID, 0.1); ok {
		t.Error("empty resource decoded")
	}
	// Noise-only must be rejected too (energy gate or CRC).
	rng := rand.New(rand.NewSource(2))
	n0 := addNoise(g, 0, rng)
	if _, ok := Decode(g, 0x4601, cellID, n0); ok {
		t.Error("noise-only resource decoded")
	}
}

func TestWrongRNTIFailsCRC(t *testing.T) {
	g := phy.NewGrid(51)
	if err := Encode(g, UCI{CQI: 9}, 0x4601, cellID); err != nil {
		t.Fatal(err)
	}
	// An observer guessing a wrong RNTI that maps to the same PRB must
	// fail the descramble+CRC, not misread the report.
	other := uint16(0x4601 + 51) // same resource PRB
	if ResourcePRB(other, 51) != ResourcePRB(0x4601, 51) {
		t.Fatal("test setup: PRBs differ")
	}
	if _, ok := Decode(g, other, cellID, 1e-4); ok {
		t.Error("wrong-RNTI decode passed")
	}
}

func TestResourceSeparation(t *testing.T) {
	// Two UEs on different PRBs coexist in one uplink slot.
	g := phy.NewGrid(51)
	a := UCI{SR: true, CQI: 3}
	b := UCI{CQI: 14, HasAck: true, Ack: true, AckID: 5}
	if err := Encode(g, a, 0x4601, cellID); err != nil {
		t.Fatal(err)
	}
	if err := Encode(g, b, 0x4602, cellID); err != nil {
		t.Fatal(err)
	}
	gotA, okA := Decode(g, 0x4601, cellID, 1e-4)
	gotB, okB := Decode(g, 0x4602, cellID, 1e-4)
	if !okA || gotA != a {
		t.Errorf("UE A: %+v ok=%v", gotA, okA)
	}
	if !okB || gotB != b {
		t.Errorf("UE B: %+v ok=%v", gotB, okB)
	}
}

func TestValidation(t *testing.T) {
	g := phy.NewGrid(51)
	if err := Encode(g, UCI{CQI: 99}, 1, cellID); err == nil {
		t.Error("CQI 99 accepted")
	}
	if err := Encode(g, UCI{AckID: -1}, 1, cellID); err == nil {
		t.Error("negative ack id accepted")
	}
}

// oracleUnpack is the bits.Reader parse unpack replaced, kept as the
// reference TestPackUnpackExhaustive holds unpack to.
func oracleUnpack(b []uint8) UCI {
	r := bits.NewReader(b)
	var u UCI
	u.SR = r.ReadBool()
	u.CQI = int(r.ReadUint(4))
	u.HasAck = r.ReadBool()
	u.Ack = r.ReadBool()
	u.AckID = int(r.ReadUint(4))
	return u
}

// TestPackUnpackExhaustive: for every one of the 2¹¹ payloads, unpack
// equals the reader oracle and pack writes the payload back.
func TestPackUnpackExhaustive(t *testing.T) {
	b := make([]uint8, payloadBits)
	for v := 0; v < 1<<payloadBits; v++ {
		for i := range b {
			b[i] = uint8(v >> (payloadBits - 1 - i) & 1)
		}
		u := unpack(b)
		if want := oracleUnpack(b); u != want {
			t.Fatalf("payload %011b: unpack %+v, oracle %+v", v, u, want)
		}
		if got := u.pack(); !slices.Equal(got, b) {
			t.Fatalf("payload %011b: pack(unpack) = %v", v, got)
		}
	}
}

// TestWorkspaceMatchesDecode: a Workspace reused across UEs with each
// UE's Resource decodes exactly what the package-level Decode does, on
// carrying and empty resources from clean to hopeless SNRs, and its
// energy gate agrees with ResourceEnergy.
func TestWorkspaceMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rntis := []uint16{0x4601, 0x4602, 0x4633, 0x4700}
	res := make([]Resource, len(rntis))
	for i, rnti := range rntis {
		res[i] = NewResource(rnti, cellID)
	}
	var w Workspace
	decoded := 0
	for _, snr := range []float64{30, 8, 2, -2, -8} {
		for trial := 0; trial < 20; trial++ {
			g := phy.NewGrid(51)
			for _, rnti := range rntis[:trial%len(rntis)] {
				u := UCI{SR: rng.Intn(2) == 1, CQI: rng.Intn(16), HasAck: rng.Intn(2) == 1, Ack: rng.Intn(2) == 1, AckID: rng.Intn(16)}
				if err := Encode(g, u, rnti, cellID); err != nil {
					t.Fatal(err)
				}
			}
			n0 := addNoise(g, snr, rng)
			for i, rnti := range rntis {
				want, wantOK := Decode(g, rnti, cellID, n0)
				got, ok := w.Decode(g, &res[i], n0)
				if got != want || ok != wantOK {
					t.Fatalf("snr %g rnti %#x: workspace %+v %v, Decode %+v %v", snr, rnti, got, ok, want, wantOK)
				}
				if ok {
					decoded++
				}
				if pass := ResourceEnergy(g, rnti) >= EnergyThreshold; w.gather(g, rnti) != pass {
					t.Fatalf("snr %g rnti %#x: gather's energy gate disagrees with ResourceEnergy (%v)", snr, rnti, pass)
				}
			}
		}
	}
	if decoded == 0 {
		t.Fatal("nothing decoded")
	}
}

func BenchmarkDecode(b *testing.B) {
	g := phy.NewGrid(51)
	if err := Encode(g, UCI{SR: true, CQI: 11}, 0x4601, cellID); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decode(g, 0x4601, cellID, 0.05)
	}
}
