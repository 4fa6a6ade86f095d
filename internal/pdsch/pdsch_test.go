package pdsch

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"nrscope/internal/channel"
	"nrscope/internal/dci"
	"nrscope/internal/mcs"
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

// controlGrant builds a small low-rate grant like the ones carrying
// SIB1/RAR/MSG4 (QPSK-ish MCS on the 64QAM table).
func controlGrant(t testing.TB, rnti uint16, nprb, mcsIdx int) dci.Grant {
	t.Helper()
	cfg := dci.DefaultConfig(51)
	riv, err := phy.EncodeRIV(51, 2, nprb)
	if err != nil {
		t.Fatal(err)
	}
	d := dci.DCI{Format: dci.Format10, FreqAlloc: riv, TimeAlloc: 0, MCS: mcsIdx}
	g, err := dci.ToGrant(d, rnti, cfg, dci.LinkConfig{DMRSPerPRB: 12, Layers: 1, Table: mcs.TableQAM64})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEncodeDecodeRoundTripNoiseless(t *testing.T) {
	g := phy.NewGrid(51)
	grant := controlGrant(t, 0xFFFF, 8, 5)
	payload := []byte("SIB1: cell configuration payload for round trip")
	if err := Encode(g, grant, payload, cellID); err != nil {
		t.Fatal(err)
	}
	got, ok := Decode(g, grant, cellID, 1e-4)
	if !ok {
		t.Fatal("decode failed on clean channel")
	}
	if !bytes.Equal(got[:len(payload)], payload) {
		t.Errorf("payload mismatch:\n got %q\nwant %q", got[:len(payload)], payload)
	}
	// Padding must be zero.
	for i := len(payload); i < len(got); i++ {
		if got[i] != 0 {
			t.Errorf("padding byte %d = %#x, want 0", i, got[i])
		}
	}
}

func TestDecodeSurvivesModerateNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ok := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		g := phy.NewGrid(51)
		grant := controlGrant(t, 0x4601, 6, 4)
		payload := []byte("RRC Setup dedicated configuration")
		if err := Encode(g, grant, payload, cellID); err != nil {
			t.Fatal(err)
		}
		n0 := addNoise(g, 8, rng)
		if got, pass := Decode(g, grant, cellID, n0); pass && bytes.Equal(got[:len(payload)], payload) {
			ok++
		}
	}
	if ok < trials*8/10 {
		t.Errorf("decoded %d/%d at 8 dB, want >= 80%%", ok, trials)
	}
}

func TestDecodeFailsOnSilentGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := phy.NewGrid(51)
	n0 := addNoise(g, 10, rng) // noise only, no signal
	grant := controlGrant(t, 0x4601, 6, 4)
	if _, ok := Decode(g, grant, cellID, n0); ok {
		t.Error("decode passed CRC on noise-only grid")
	}
}

func TestEncodeRejectsOversizedPayload(t *testing.T) {
	g := phy.NewGrid(51)
	grant := controlGrant(t, 0x4601, 2, 0)
	huge := make([]byte, grant.TBS/8+10)
	if err := Encode(g, grant, huge, cellID); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestWrongRNTIScramblingFails(t *testing.T) {
	g := phy.NewGrid(51)
	grant := controlGrant(t, 0x4601, 8, 5)
	payload := []byte("scrambled for RNTI 0x4601")
	if err := Encode(g, grant, payload, cellID); err != nil {
		t.Fatal(err)
	}
	wrong := grant
	wrong.RNTI = 0x4602
	if _, ok := Decode(g, wrong, cellID, 1e-4); ok {
		t.Error("decode with wrong RNTI scrambling passed CRC")
	}
}

func TestPBCHRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := phy.NewGrid(51)
	mib := []byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0x40}
	if err := EncodePBCH(g, mib, cellID); err != nil {
		t.Fatal(err)
	}
	n0 := addNoise(g, 5, rng) // PBCH is heavily coded; must survive low SNR
	got, ok := DecodePBCH(g, cellID, n0)
	if !ok {
		t.Fatal("PBCH decode failed at 5 dB")
	}
	if !bytes.Equal(got[:len(mib)], mib) {
		t.Errorf("MIB mismatch: got %x want %x", got[:len(mib)], mib)
	}
}

func TestPBCHRejectsOversizedMIB(t *testing.T) {
	g := phy.NewGrid(51)
	if err := EncodePBCH(g, make([]byte, 100), cellID); err == nil {
		t.Error("oversized MIB accepted")
	}
}

func TestPBCHFailsWithoutSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := phy.NewGrid(51)
	n0 := addNoise(g, 10, rng)
	if _, ok := DecodePBCH(g, cellID, n0); ok {
		t.Error("PBCH decode passed on noise-only grid")
	}
}

func TestAllocationREsOrderAndBounds(t *testing.T) {
	grant := controlGrant(t, 1, 3, 2)
	res := allocationREs(grant, 1<<20)
	want := grant.NumPRB * phy.SubcarriersPerPRB * grant.Time.NumSymbols
	if len(res) != want {
		t.Fatalf("allocation REs = %d, want %d", len(res), want)
	}
	for _, re := range res {
		if re.Symbol < grant.Time.StartSymbol || re.Symbol >= grant.Time.StartSymbol+grant.Time.NumSymbols {
			t.Fatalf("RE symbol %d outside allocation", re.Symbol)
		}
		prb := re.Subcarrier / phy.SubcarriersPerPRB
		if prb < grant.StartPRB || prb >= grant.StartPRB+grant.NumPRB {
			t.Fatalf("RE PRB %d outside allocation", prb)
		}
	}
}

func BenchmarkEncodeControlPDSCH(b *testing.B) {
	grant := controlGrant(b, 0x4601, 8, 5)
	payload := []byte("RRC Setup dedicated configuration payload")
	g := phy.NewGrid(51)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Encode(g, grant, payload, cellID); err != nil {
			b.Fatal(err)
		}
	}
}
