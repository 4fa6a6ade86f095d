// Package radio is the substitute for NR-Scope's USRP front end
// (DESIGN.md §2): it takes the gNB's transmitted slot grids, applies the
// scope's own reception channel (AWGN at the slot's SNR, which may fade
// or depend on the scope's position via a path-loss model), and hands
// captures to the telemetry engine. Automatic gain control is modelled
// as a perfect noise-variance estimate delivered with each capture; the
// resampling stage of the real front end has no equivalent at symbol
// level.
package radio

import (
	"math"
	"math/rand"

	"nrscope/internal/channel"
	"nrscope/internal/phy"
)

// Capture is one received slot: the impaired grid plus the receiver's
// noise estimate (the AGC output the demappers consume).
type Capture struct {
	SlotIdx int
	Ref     phy.SlotRef
	// Grid is nil for slots with no downlink transmission.
	Grid *phy.Grid
	// N0 is the AGC's noise-variance estimate for this slot.
	N0 float64
	// SNRdB is the channel state the capture experienced (diagnostics).
	SNRdB float64
}

// noisePool is a shared ring of pregenerated unit-variance Gaussian
// samples. Per-slot noise is drawn as a slice at a random offset — the
// standard simulator trick that turns millions of Box-Muller/ziggurat
// draws per second into sequential reads. The pool is ~2M samples, far
// longer than a slot, so cross-slot correlation is negligible.
var noisePool = func() []float64 {
	rng := rand.New(rand.NewSource(0x601D))
	out := make([]float64, 1<<21)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}()

// Receiver models the scope's reception path.
type Receiver struct {
	ch  *channel.Channel
	rng *rand.Rand

	reuse bool
	bufs  [2]*phy.Grid
	n     int
}

// Reuse enables capture-buffer recycling: successive Captures alternate
// between two grid buffers, so each returned Capture stays valid only
// until the second-following Capture. Use it for synchronous,
// process-immediately loops (the eval sessions); leave it off when
// captures are queued (a core.DecodePool).
func (r *Receiver) Reuse(on bool) *Receiver {
	r.reuse = on
	return r
}

// NewReceiver creates a receiver whose own link to the cell follows the
// given channel model and mean SNR. This is the knob the Fig. 13
// coverage sweep turns (position -> path loss -> SNR).
func NewReceiver(model channel.Model, meanSNRdB float64, seed int64) *Receiver {
	return &Receiver{
		ch:  channel.New(model, meanSNRdB, seed),
		rng: rand.New(rand.NewSource(seed ^ 0x0DD)),
	}
}

// NewReceiverAt places the receiver d metres from the cell under a
// path-loss model (Fig. 13 / Fig. 6 geometry).
func NewReceiverAt(pl channel.PathLoss, d, txPowerDBm, noiseFloorDBm float64, seed int64) *Receiver {
	snr := pl.SNRAt(d, txPowerDBm, noiseFloorDBm)
	return NewReceiver(channel.Normal, snr, seed)
}

// Capture receives one slot: the grid is cloned (the transmitter's
// buffer is not disturbed) and white noise at this slot's SNR is added
// to every resource element.
func (r *Receiver) Capture(slotIdx int, ref phy.SlotRef, tx *phy.Grid) *Capture {
	snr := r.ch.NextSlot()
	cap := &Capture{SlotIdx: slotIdx, Ref: ref, SNRdB: snr}
	if tx == nil {
		return cap
	}
	n0 := channel.SNRdBToN0(snr)
	cap.N0 = n0
	var g *phy.Grid
	if r.reuse {
		buf := &r.bufs[r.n%2]
		r.n++
		if *buf == nil {
			*buf = phy.NewGrid(tx.NumPRB)
		}
		g = *buf
	} else {
		g = phy.NewGrid(tx.NumPRB)
	}
	sigma := math.Sqrt(n0 / 2)
	src := tx.Samples()
	dst := g.Samples()
	// Two independently offset noise streams (I and Q) from the pool.
	nI := noisePool[r.rng.Intn(len(noisePool)-len(src)):]
	nQ := noisePool[r.rng.Intn(len(noisePool)-len(src)):]
	for i := range src {
		dst[i] = src[i] + complex(nI[i]*sigma, nQ[i]*sigma)
	}
	cap.Grid = g
	return cap
}
