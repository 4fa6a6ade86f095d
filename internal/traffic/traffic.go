// Package traffic generates per-UE offered load and keeps the delivered-
// byte ledger that substitutes for the paper's tcpdump ground truth
// (§5.2.2): the evaluation compares NR-Scope's TBS-derived bitrate
// against packet-level delivery, and this package reproduces both the
// workloads (video watching, file downloads — paper §5.2.2) and the
// measurement.
package traffic

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Generator produces the bytes arriving at a UE's downlink (or uplink)
// queue each slot. Implementations are not safe for concurrent use;
// create one per UE per direction.
type Generator interface {
	// NextSlot returns the number of new bytes that arrived during one TTI.
	NextSlot() int
}

// CBR is a constant-bit-rate source (e.g. a fixed-quality stream).
type CBR struct {
	bytesPerSlot float64
	acc          float64
}

// NewCBR builds a CBR source of rate bps for the given TTI duration.
func NewCBR(bps float64, tti time.Duration) *CBR {
	return &CBR{bytesPerSlot: bps / 8 * tti.Seconds()}
}

// NextSlot implements Generator, carrying fractional bytes across slots.
func (c *CBR) NextSlot() int {
	c.acc += c.bytesPerSlot
	n := int(c.acc)
	c.acc -= float64(n)
	return n
}

// Dynamic is a rate-controllable source: a congestion controller (the
// paper's §6 use case) adjusts its sending rate while the flow runs.
// Safe for single-goroutine use like the other generators.
type Dynamic struct {
	tti          time.Duration
	bytesPerSlot float64
	acc          float64
}

// NewDynamic builds a dynamic source starting at bps.
func NewDynamic(bps float64, tti time.Duration) *Dynamic {
	d := &Dynamic{tti: tti}
	d.SetRate(bps)
	return d
}

// SetRate changes the sending rate (bits/second).
func (d *Dynamic) SetRate(bps float64) {
	if bps < 0 {
		bps = 0
	}
	d.bytesPerSlot = bps / 8 * d.tti.Seconds()
}

// NextSlot implements Generator.
func (d *Dynamic) NextSlot() int {
	d.acc += d.bytesPerSlot
	n := int(d.acc)
	d.acc -= float64(n)
	return n
}

// Bulk models a backlogged file download: the queue never runs dry.
type Bulk struct {
	perSlot int
}

// NewBulk returns a bulk source that keeps at least perSlot bytes
// arriving every TTI (effectively "as much as the link can carry").
func NewBulk(perSlot int) *Bulk { return &Bulk{perSlot: perSlot} }

// NextSlot implements Generator.
func (b *Bulk) NextSlot() int { return b.perSlot }

// Video models a frame-paced stream: bursts of frameBytes (with jitter)
// every framePeriod, mimicking the "watching videos" workload.
type Video struct {
	frameBytes int
	jitter     float64
	slotsPer   int
	counter    int
	rng        *rand.Rand
}

// NewVideo builds a video source: fps frames per second, mean frame size
// frameBytes, multiplicative jitter (0.2 = ±20%), for the given TTI.
func NewVideo(fps int, frameBytes int, jitter float64, tti time.Duration, seed int64) *Video {
	framePeriod := time.Second / time.Duration(fps)
	slots := int(framePeriod / tti)
	if slots < 1 {
		slots = 1
	}
	return &Video{
		frameBytes: frameBytes,
		jitter:     jitter,
		slotsPer:   slots,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// NextSlot implements Generator.
func (v *Video) NextSlot() int {
	v.counter++
	if v.counter < v.slotsPer {
		return 0
	}
	v.counter = 0
	f := 1 + v.jitter*(2*v.rng.Float64()-1)
	return int(float64(v.frameBytes) * f)
}

// OnOff is a Poisson on/off source: exponentially distributed on and off
// periods, CBR while on. It captures the bursty "come and go" pattern of
// interactive traffic.
type OnOff struct {
	cbr       *CBR
	meanOn    float64 // slots
	meanOff   float64 // slots
	on        bool
	slotsLeft int
	rng       *rand.Rand
}

// NewOnOff builds an on/off source with the given on-rate (bps) and mean
// on/off durations.
func NewOnOff(bps float64, meanOn, meanOff time.Duration, tti time.Duration, seed int64) *OnOff {
	o := &OnOff{
		cbr:     NewCBR(bps, tti),
		meanOn:  float64(meanOn) / float64(tti),
		meanOff: float64(meanOff) / float64(tti),
		rng:     rand.New(rand.NewSource(seed)),
	}
	o.on = true
	o.slotsLeft = o.draw(o.meanOn)
	return o
}

func (o *OnOff) draw(mean float64) int {
	n := int(o.rng.ExpFloat64() * mean)
	if n < 1 {
		n = 1
	}
	return n
}

// NextSlot implements Generator.
func (o *OnOff) NextSlot() int {
	if o.slotsLeft == 0 {
		o.on = !o.on
		if o.on {
			o.slotsLeft = o.draw(o.meanOn)
		} else {
			o.slotsLeft = o.draw(o.meanOff)
		}
	}
	o.slotsLeft--
	if !o.on {
		return 0
	}
	return o.cbr.NextSlot()
}

// FiniteFile delivers totalBytes as fast as the link drains it, then goes
// silent — the "downloading files" workload.
type FiniteFile struct {
	remaining int
	perSlot   int
}

// NewFiniteFile builds a finite download of totalBytes arriving in chunks
// of up to perSlot bytes per TTI.
func NewFiniteFile(totalBytes, perSlot int) *FiniteFile {
	return &FiniteFile{remaining: totalBytes, perSlot: perSlot}
}

// NextSlot implements Generator.
func (f *FiniteFile) NextSlot() int {
	if f.remaining <= 0 {
		return 0
	}
	n := f.perSlot
	if n > f.remaining {
		n = f.remaining
	}
	f.remaining -= n
	return n
}

// Done reports whether the file finished arriving.
func (f *FiniteFile) Done() bool { return f.remaining <= 0 }

// MTU is the packet size the ledger assumes when counting packets per
// TTI (Fig. 16d): a typical downlink IP packet.
const MTU = 1400

// Ledger is the tcpdump substitute: it records the bytes actually
// delivered to one UE per slot, and derives bitrates and packets-per-TTI
// exactly as the paper's phone-side capture does. Storage is sparse —
// traffic is bursty and UEs short-lived, so only slots with deliveries
// cost memory.
type Ledger struct {
	tti       time.Duration
	maxSlots  int
	slots     map[int]int64 // slot index -> delivered bytes
	delivered int64
}

// NewLedger creates a ledger for a trace of at most maxSlots TTIs.
func NewLedger(maxSlots int, tti time.Duration) *Ledger {
	return &Ledger{tti: tti, maxSlots: maxSlots, slots: make(map[int]int64)}
}

// Record notes nBytes delivered in the given slot index.
func (l *Ledger) Record(slotIdx int, nBytes int) {
	if slotIdx < 0 || slotIdx >= l.maxSlots || nBytes == 0 {
		return
	}
	l.slots[slotIdx] += int64(nBytes)
	l.delivered += int64(nBytes)
}

// TotalBytes returns the total delivered bytes.
func (l *Ledger) TotalBytes() int64 { return l.delivered }

// WindowBitrate computes the delivered bitrate (bits/s) over the window
// of slots [from, to).
func (l *Ledger) WindowBitrate(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > l.maxSlots {
		to = l.maxSlots
	}
	if to <= from {
		return 0
	}
	var sum int64
	if to-from < len(l.slots) {
		for s := from; s < to; s++ {
			sum += l.slots[s]
		}
	} else {
		for s, b := range l.slots {
			if s >= from && s < to {
				sum += b
			}
		}
	}
	dur := float64(to-from) * l.tti.Seconds()
	return float64(sum) * 8 / dur
}

// PacketsPerTTI returns, for every slot with traffic in slot order, the
// number of MTU packets that slot's delivery aggregates (Fig. 16d).
func (l *Ledger) PacketsPerTTI() []int {
	keys := make([]int, 0, len(l.slots))
	for s := range l.slots {
		keys = append(keys, s)
	}
	sort.Ints(keys)
	out := make([]int, 0, len(keys))
	for _, s := range keys {
		out = append(out, int((l.slots[s]+MTU-1)/MTU))
	}
	return out
}

// String summarises the ledger.
func (l *Ledger) String() string {
	return fmt.Sprintf("ledger{%d active slots, %d bytes}", len(l.slots), l.delivered)
}
