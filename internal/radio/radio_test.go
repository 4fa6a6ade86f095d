package radio

import (
	"math"
	"testing"

	"nrscope/internal/channel"
	"nrscope/internal/phy"
)

func txGrid() *phy.Grid {
	g := phy.NewGrid(24)
	for sym := 0; sym < phy.SymbolsPerSlot; sym++ {
		for sc := 0; sc < g.Width(); sc++ {
			g.Set(sym, sc, complex(1/math.Sqrt2, 1/math.Sqrt2))
		}
	}
	return g
}

func TestCaptureAddsCalibratedNoise(t *testing.T) {
	rx := NewReceiver(channel.AWGN, 10, 1)
	tx := txGrid()
	cap := rx.Capture(0, phy.SlotRef{}, tx)
	if cap.Grid == nil {
		t.Fatal("no grid captured")
	}
	// Empirical noise power must match the AGC-reported N0.
	var p float64
	src := tx.Samples()
	dst := cap.Grid.Samples()
	for i := range src {
		d := dst[i] - src[i]
		p += real(d)*real(d) + imag(d)*imag(d)
	}
	p /= float64(len(src))
	if math.Abs(p-cap.N0)/cap.N0 > 0.1 {
		t.Errorf("measured noise power %.4f, AGC says %.4f", p, cap.N0)
	}
	// AWGN model at base 10 dB has a -2 dB offset.
	wantN0 := channel.SNRdBToN0(8)
	if math.Abs(cap.N0-wantN0)/wantN0 > 1e-9 {
		t.Errorf("N0 = %v, want %v", cap.N0, wantN0)
	}
}

func TestCaptureDoesNotDisturbTransmitter(t *testing.T) {
	rx := NewReceiver(channel.Normal, 15, 2)
	tx := txGrid()
	want := tx.At(3, 17)
	rx.Capture(0, phy.SlotRef{}, tx)
	if tx.At(3, 17) != want {
		t.Error("capture mutated the transmit grid")
	}
}

func TestCaptureNilGrid(t *testing.T) {
	rx := NewReceiver(channel.Normal, 15, 3)
	cap := rx.Capture(7, phy.SlotRef{SFN: 1, Slot: 2}, nil)
	if cap.Grid != nil || cap.SlotIdx != 7 {
		t.Errorf("nil-grid capture wrong: %+v", cap)
	}
}

func TestReuseAlternatesTwoBuffers(t *testing.T) {
	rx := NewReceiver(channel.Normal, 15, 4).Reuse(true)
	tx := txGrid()
	a := rx.Capture(0, phy.SlotRef{}, tx)
	b := rx.Capture(1, phy.SlotRef{}, tx)
	c := rx.Capture(2, phy.SlotRef{}, tx)
	if a.Grid == b.Grid {
		t.Error("consecutive captures share a buffer")
	}
	if a.Grid != c.Grid {
		t.Error("buffer not recycled on the second-following capture")
	}
}

func TestNoReuseAllocatesFresh(t *testing.T) {
	rx := NewReceiver(channel.Normal, 15, 5)
	tx := txGrid()
	a := rx.Capture(0, phy.SlotRef{}, tx)
	b := rx.Capture(1, phy.SlotRef{}, tx)
	c := rx.Capture(2, phy.SlotRef{}, tx)
	if a.Grid == b.Grid || a.Grid == c.Grid {
		t.Error("non-reuse receiver recycled a buffer")
	}
}

func TestReceiverAtDistanceWeakerWhenFar(t *testing.T) {
	pl := channel.DefaultIndoor()
	near := NewReceiver(channel.Normal, pl.SNRAt(1, 10, -85), 6)
	far := NewReceiver(channel.Normal, pl.SNRAt(50, 10, -85), 6)
	tx := txGrid()
	cn := near.Capture(0, phy.SlotRef{}, tx)
	cf := far.Capture(0, phy.SlotRef{}, tx)
	if cf.SNRdB >= cn.SNRdB {
		t.Errorf("far SNR %.1f not below near %.1f", cf.SNRdB, cn.SNRdB)
	}
	if cf.N0 <= cn.N0 {
		t.Error("far capture not noisier")
	}
}

func TestNoiseDiffersAcrossSlots(t *testing.T) {
	rx := NewReceiver(channel.AWGN, 10, 7)
	tx := txGrid()
	a := rx.Capture(0, phy.SlotRef{}, tx)
	aCopy := append([]complex128(nil), a.Grid.Samples()...)
	b := rx.Capture(1, phy.SlotRef{}, tx)
	same := 0
	for i, v := range b.Grid.Samples() {
		if v == aCopy[i] {
			same++
		}
	}
	if same == len(aCopy) {
		t.Error("identical noise across slots")
	}
}

func BenchmarkCapture51PRB(b *testing.B) {
	rx := NewReceiver(channel.Normal, 20, 1).Reuse(true)
	tx := phy.NewGrid(51)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rx.Capture(i, phy.SlotRef{}, tx)
	}
}
