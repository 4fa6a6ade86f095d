package traffic

import (
	"math"
	"testing"
	"time"
)

const tti = 500 * time.Microsecond // 30 kHz SCS

func TestCBRRate(t *testing.T) {
	g := NewCBR(5e6, tti) // 5 Mbit/s
	var total int
	const slots = 20000 // 10 s
	for i := 0; i < slots; i++ {
		total += g.NextSlot()
	}
	gotBps := float64(total) * 8 / (float64(slots) * tti.Seconds())
	if math.Abs(gotBps-5e6)/5e6 > 0.001 {
		t.Errorf("CBR rate %.0f bps, want 5e6", gotBps)
	}
}

func TestCBRFractionalAccumulation(t *testing.T) {
	// 100 kbps at 0.5 ms slots = 6.25 bytes/slot; must not round to 6.
	g := NewCBR(100e3, tti)
	var total int
	for i := 0; i < 8000; i++ {
		total += g.NextSlot()
	}
	want := 100e3 / 8 * 4.0 // 4 seconds
	if math.Abs(float64(total)-want) > 2 {
		t.Errorf("CBR delivered %d bytes, want %.0f", total, want)
	}
}

// dynamicRate is the generator's current sending rate in bits/second.
func dynamicRate(d *Dynamic) float64 { return d.bytesPerSlot * 8 / d.tti.Seconds() }

func TestDynamicRateChanges(t *testing.T) {
	g := NewDynamic(4e6, tti)
	if math.Abs(dynamicRate(g)-4e6) > 1 {
		t.Errorf("initial rate %.0f", dynamicRate(g))
	}
	total := 0
	for i := 0; i < 2000; i++ { // 1 s at 4 Mbps
		total += g.NextSlot()
	}
	if got := float64(total) * 8; math.Abs(got-4e6)/4e6 > 0.01 {
		t.Errorf("delivered %.0f bits in 1 s at 4 Mbps", got)
	}
	g.SetRate(1e6)
	total = 0
	for i := 0; i < 2000; i++ {
		total += g.NextSlot()
	}
	if got := float64(total) * 8; math.Abs(got-1e6)/1e6 > 0.01 {
		t.Errorf("delivered %.0f bits in 1 s after SetRate(1M)", got)
	}
	g.SetRate(-5)
	if dynamicRate(g) != 0 {
		t.Error("negative rate not clamped to zero")
	}
	if g.NextSlot() != 0 {
		t.Error("zero-rate source produced bytes")
	}
}

func TestLedgerString(t *testing.T) {
	l := NewLedger(10, tti)
	l.Record(1, 500)
	if s := l.String(); s == "" || s[0] != 'l' {
		t.Errorf("String() = %q", s)
	}
}

func TestBulkAlwaysBacklogged(t *testing.T) {
	g := NewBulk(5000)
	for i := 0; i < 100; i++ {
		if g.NextSlot() != 5000 {
			t.Fatal("bulk source ran dry")
		}
	}
}

func TestVideoFramePacing(t *testing.T) {
	g := NewVideo(30, 20000, 0.2, tti, 1)
	bursts := 0
	var total int
	const slots = 2000 * 10 // 10 s at 0.5 ms
	for i := 0; i < slots; i++ {
		b := g.NextSlot()
		if b > 0 {
			bursts++
			total += b
		}
	}
	if bursts < 290 || bursts > 310 {
		t.Errorf("%d frame bursts over 10 s, want ~300", bursts)
	}
	meanFrame := float64(total) / float64(bursts)
	if math.Abs(meanFrame-20000)/20000 > 0.1 {
		t.Errorf("mean frame %.0f bytes, want ~20000", meanFrame)
	}
}

func TestOnOffDutyCycle(t *testing.T) {
	g := NewOnOff(8e6, 100*time.Millisecond, 100*time.Millisecond, tti, 2)
	var total int
	const slots = 200000 // 100 s
	for i := 0; i < slots; i++ {
		total += g.NextSlot()
	}
	gotBps := float64(total) * 8 / (float64(slots) * tti.Seconds())
	// ~50% duty cycle of 8 Mbit/s.
	if gotBps < 2.5e6 || gotBps > 5.5e6 {
		t.Errorf("on/off mean rate %.2f Mbps, want ~4", gotBps/1e6)
	}
}

func TestFiniteFileCompletes(t *testing.T) {
	g := NewFiniteFile(10000, 3000)
	var total int
	for i := 0; i < 10 && !g.Done(); i++ {
		total += g.NextSlot()
	}
	if total != 10000 {
		t.Errorf("file delivered %d bytes, want 10000", total)
	}
	if g.NextSlot() != 0 {
		t.Error("finished file kept producing")
	}
}

func TestLedgerBitrate(t *testing.T) {
	l := NewLedger(2000, tti) // 1 s trace
	// 1000 bytes every slot for the first half.
	for i := 0; i < 1000; i++ {
		l.Record(i, 1000)
	}
	// Full-window rate: 1e6 bytes over 1 s = 8 Mbit/s... over 2000 slots.
	if got := l.WindowBitrate(0, 2000); math.Abs(got-8e6) > 1 {
		t.Errorf("full-window bitrate %.0f, want 8e6", got)
	}
	// First-half rate: 16 Mbit/s.
	if got := l.WindowBitrate(0, 1000); math.Abs(got-16e6) > 1 {
		t.Errorf("half-window bitrate %.0f, want 16e6", got)
	}
	// Second half is silent.
	if got := l.WindowBitrate(1000, 2000); got != 0 {
		t.Errorf("silent window bitrate %.0f, want 0", got)
	}
	if l.TotalBytes() != 1e6 {
		t.Errorf("total %d, want 1e6", l.TotalBytes())
	}
}

func TestLedgerBoundsIgnored(t *testing.T) {
	l := NewLedger(10, tti)
	l.Record(-1, 100)
	l.Record(10, 100)
	if l.TotalBytes() != 0 {
		t.Error("out-of-range records counted")
	}
	if l.slots[-1] != 0 || l.slots[99] != 0 {
		t.Error("out-of-range reads nonzero")
	}
}

func TestPacketsPerTTI(t *testing.T) {
	l := NewLedger(10, tti)
	l.Record(0, MTU)       // 1 packet
	l.Record(1, MTU*3)     // 3 packets aggregated
	l.Record(2, MTU*2+100) // 3 packets (partial counts)
	got := l.PacketsPerTTI()
	want := []int{1, 3, 3}
	if len(got) != len(want) {
		t.Fatalf("PacketsPerTTI = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("slot %d: %d packets, want %d", i, got[i], want[i])
		}
	}
}
