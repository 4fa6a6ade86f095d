package channel

import (
	"math"
	"testing"
)

func TestModelString(t *testing.T) {
	want := map[Model]string{Normal: "Normal", AWGN: "AWGN", Pedestrian: "Pedestrian", Vehicle: "Vehicle", Urban: "Urban"}
	for m, w := range want {
		if m.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), w)
		}
	}
}

func TestChannelDeterministic(t *testing.T) {
	a := New(Vehicle, 20, 42)
	b := New(Vehicle, 20, 42)
	for i := 0; i < 100; i++ {
		if a.NextSlot() != b.NextSlot() {
			t.Fatal("same seed produced different SNR traces")
		}
	}
}

func TestChannelMeanSNR(t *testing.T) {
	// The long-run average must sit near the configured mean + offset.
	for _, m := range Models {
		c := New(m, 20, 7)
		off, _, _ := m.params()
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += c.NextSlot()
		}
		avg := sum / n
		if math.Abs(avg-(20+off)) > 1.0 {
			t.Errorf("%v: mean SNR %.2f, want %.2f +/- 1", m, avg, 20+off)
		}
	}
}

func TestChannelVariabilityOrdering(t *testing.T) {
	// AWGN must be constant; Urban must fluctuate more than Normal.
	variance := func(m Model) float64 {
		c := New(m, 20, 3)
		var vals []float64
		for i := 0; i < 5000; i++ {
			vals = append(vals, c.NextSlot())
		}
		var mean float64
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		return ss / float64(len(vals))
	}
	if v := variance(AWGN); v != 0 {
		t.Errorf("AWGN variance %.3f, want 0", v)
	}
	vNormal, vUrban := variance(Normal), variance(Urban)
	if vUrban <= vNormal {
		t.Errorf("Urban variance %.2f not above Normal %.2f", vUrban, vNormal)
	}
}

func TestPedestrianCoherenceSlowerThanVehicle(t *testing.T) {
	// Lag-1 autocorrelation: pedestrian ~ static, vehicle decorrelates.
	autocorr := func(m Model) float64 {
		c := New(m, 20, 9)
		var vals []float64
		for i := 0; i < 20000; i++ {
			vals = append(vals, c.NextSlot())
		}
		var mean float64
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		var num, den float64
		for i := 1; i < len(vals); i++ {
			num += (vals[i] - mean) * (vals[i-1] - mean)
		}
		for _, v := range vals {
			den += (v - mean) * (v - mean)
		}
		return num / den
	}
	if ped, veh := autocorr(Pedestrian), autocorr(Vehicle); ped <= veh {
		t.Errorf("pedestrian autocorr %.3f not above vehicle %.3f", ped, veh)
	}
}

func TestSNRdBToN0(t *testing.T) {
	if got := SNRdBToN0(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("N0 at 0 dB = %f, want 1", got)
	}
	if got := SNRdBToN0(10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("N0 at 10 dB = %f, want 0.1", got)
	}
}

func TestEfficiencyMonotoneAndCapped(t *testing.T) {
	prev := -1.0
	for snr := -10.0; snr <= 40; snr += 0.5 {
		e := Efficiency(snr)
		if e < prev {
			t.Fatalf("efficiency decreased at %.1f dB", snr)
		}
		prev = e
	}
	if Efficiency(60) > 7.4 {
		t.Error("efficiency exceeds cap")
	}
}

func TestRequiredSNRInvertsEfficiency(t *testing.T) {
	for _, eff := range []float64{0.2, 1, 2, 4, 6} {
		snr := RequiredSNRdB(eff)
		back := Efficiency(snr)
		if math.Abs(back-eff) > 1e-9 {
			t.Errorf("eff %.2f -> snr %.2f -> eff %.4f", eff, snr, back)
		}
	}
}

func TestBLERBehaviour(t *testing.T) {
	eff := 4.0
	req := RequiredSNRdB(eff)
	if p := BLER(eff, req+10); p > 0.01 {
		t.Errorf("BLER with 10 dB headroom = %.4f, want tiny", p)
	}
	if p := BLER(eff, req-5); p < 0.9 {
		t.Errorf("BLER 5 dB under threshold = %.4f, want near 1", p)
	}
	// Monotone in SNR.
	prev := 1.1
	for snr := req - 6; snr <= req+6; snr += 0.5 {
		p := BLER(eff, snr)
		if p > prev {
			t.Fatalf("BLER increased with SNR at %.1f", snr)
		}
		prev = p
	}
}

func TestCQIRangeAndMonotone(t *testing.T) {
	prev := -1
	for snr := -20.0; snr <= 40; snr++ {
		c := CQI(snr)
		if c < 0 || c > 15 {
			t.Fatalf("CQI %d out of range at %.0f dB", c, snr)
		}
		if c < prev {
			t.Fatalf("CQI decreased at %.0f dB", snr)
		}
		prev = c
	}
	if CQI(-20) != 0 || CQI(40) != 15 {
		t.Error("CQI extremes wrong")
	}
}

func TestCQIEfficiencyMonotone(t *testing.T) {
	prev := 0.0
	for c := 0; c <= 15; c++ {
		e := CQIEfficiency(c)
		if e < prev {
			t.Fatalf("CQI efficiency decreased at %d", c)
		}
		prev = e
	}
}

func TestPathLoss(t *testing.T) {
	p := DefaultIndoor()
	if p.DB(1) != p.PL0 {
		t.Errorf("PL at reference distance = %.1f, want %.1f", p.DB(1), p.PL0)
	}
	if p.DB(0.1) != p.PL0 {
		t.Error("distances below reference not clamped")
	}
	// 10x distance at n=3 adds 30 dB.
	if got := p.DB(10) - p.DB(1); math.Abs(got-30) > 1e-9 {
		t.Errorf("decade loss = %.1f dB, want 30", got)
	}
	// SNR at larger distance must be lower.
	if p.SNRAt(5, 30, -90) <= p.SNRAt(50, 30, -90) {
		t.Error("SNR not decreasing with distance")
	}
}

func TestCommercialCellDistancesStillDecodable(t *testing.T) {
	// Fig. 6: NR-Scope received T-Mobile cells at 350 m and 1460 m.
	// With macro-cell transmit power the SNR at those ranges must stay
	// above QPSK-decodable levels (paper §5.3.3 says operational cells
	// have higher transmit power for better coverage).
	// Urban macro: n = 2.9 with a modest clutter/penetration term.
	p := PathLoss{PL0: 40, RefDist: 1, Exponent: 2.9, WalldB: 5}
	txPower := 66.0     // dBm EIRP, macro cell incl. antenna gain
	noiseFloor := -96.0 // dBm over 20 MHz
	near := p.SNRAt(350, txPower, noiseFloor)
	far := p.SNRAt(1460, txPower, noiseFloor)
	if near <= far {
		t.Error("near cell not stronger than far cell")
	}
	if far < 0 {
		t.Errorf("SNR at 1460 m = %.1f dB; model leaves commercial cells undecodable", far)
	}
}
