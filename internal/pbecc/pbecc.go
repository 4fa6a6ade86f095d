// Package pbecc implements the paper's §6 congestion-control use case:
// a sender whose rate is driven by NR-Scope telemetry, in the spirit of
// PBE-CC (SIGCOMM '20), which used the 4G predecessor NG-Scope the same
// way. The telemetry controller sets its rate to the UE's observed
// allocation plus its fair share of the cell's spare capacity — a
// physical-layer capacity signal that arrives faster than half an RTT
// and needs no probing.
//
// A delay-based end-to-end baseline (AIMD on RTT inflation) is included
// for the comparison the extension experiment runs: it only learns about
// capacity changes after queues build, so it trades utilisation against
// delay, while the telemetry controller tracks capacity directly.
package pbecc

import (
	"nrscope/internal/telemetry"
)

// Controller is a congestion-control policy producing a send rate.
// Kept: it names the contract both policies of the extension experiment
// meet, which their tests pin.
type Controller interface {
	// Name identifies the policy.
	Name() string
	// Rate returns the current target send rate in bits/second.
	Rate() float64
}

// Telemetry is the PBE-CC-style controller: rate follows the RAN's
// allocation plus fair-share spare capacity, as streamed by NR-Scope.
// The allocation signal is a time-windowed sum of scheduled transport
// block bits — time-weighted, unlike a per-DCI average, which would be
// biased toward busy slots and overshoot capacity.
type Telemetry struct {
	// Gain scales the capacity estimate into a send rate (<1 leaves
	// headroom so queues drain).
	Gain float64
	// MinRate is the probe floor: with no allocation observed yet (or a
	// flow that went fully idle) the sender must still offer traffic,
	// or no DCIs ever appear to measure — the telemetry bootstrap.
	MinRate float64

	rnti     uint16
	tti      float64 // seconds per slot
	window   []int64 // ring of scheduled bits per slot
	total    int64
	lastSlot int
	spareBps float64
}

// NewTelemetry builds the controller for one UE's downlink flow, with a
// 50 ms allocation window — short enough to track capacity swings
// within a few dozen TTIs, long enough to smooth scheduler granularity.
func NewTelemetry(rnti uint16, ttiSeconds float64) *Telemetry {
	n := int(0.05 / ttiSeconds)
	if n < 10 {
		n = 10
	}
	return &Telemetry{
		Gain: 0.9, MinRate: 500e3,
		rnti: rnti, tti: ttiSeconds, window: make([]int64, n),
	}
}

// Name implements Controller.
func (t *Telemetry) Name() string { return "nr-scope-telemetry" }

// advance zeroes ring entries between the last observed slot and now.
func (t *Telemetry) advance(slotIdx int) {
	if slotIdx <= t.lastSlot {
		return
	}
	steps := slotIdx - t.lastSlot
	if steps > len(t.window) {
		steps = len(t.window)
	}
	for i := 1; i <= steps; i++ {
		pos := (t.lastSlot + i) % len(t.window)
		t.total -= t.window[pos]
		t.window[pos] = 0
	}
	t.lastSlot = slotIdx
}

// OnRecord consumes one telemetry record from the NR-Scope feed.
func (t *Telemetry) OnRecord(rec telemetry.Record) {
	if rec.RNTI != t.rnti || !rec.Downlink || rec.Common || rec.IsRetx {
		return
	}
	t.advance(rec.SlotIdx)
	t.window[rec.SlotIdx%len(t.window)] += int64(rec.TBS)
	t.total += int64(rec.TBS)
}

// OnSpare consumes the fair-share spare capacity attributed to this UE
// (bits/second), from the scope's per-TTI spare estimate.
func (t *Telemetry) OnSpare(bps float64) {
	t.spareBps = bps
}

// OnIdle advances the window through slots with no DCI for this UE, so
// the rate follows capacity down, not just up.
func (t *Telemetry) OnIdle(slotIdx int) {
	t.advance(slotIdx)
}

// allocBps returns the windowed allocation rate in bits/second.
func (t *Telemetry) allocBps() float64 {
	return float64(t.total) / (float64(len(t.window)) * t.tti)
}

// Rate implements Controller: allocation plus spare, with headroom and
// the probe floor.
func (t *Telemetry) Rate() float64 {
	r := t.Gain * (t.allocBps() + t.spareBps)
	if r < t.MinRate {
		return t.MinRate
	}
	return r
}

// AIMD is the end-to-end baseline: additive increase every RTT, halving
// when the measured RTT inflates past a threshold over the base (the
// classic delay-triggered backoff; loss-based variants behave worse in
// deep cellular buffers — §1 of the paper).
type AIMD struct {
	// IncreaseBpsPerRTT is the additive probe step.
	IncreaseBpsPerRTT float64
	// DelayThreshold (seconds) of queueing delay that triggers backoff.
	DelayThreshold float64

	rate     float64
	rttSlots int
	counter  int
}

// NewAIMD builds the baseline at a starting rate.
func NewAIMD(startBps float64, rttSlots int) *AIMD {
	return &AIMD{
		IncreaseBpsPerRTT: 250e3,
		DelayThreshold:    0.020,
		rate:              startBps,
		rttSlots:          rttSlots,
	}
}

// Name implements Controller.
func (a *AIMD) Name() string { return "aimd-delay" }

// OnSlot feeds one slot's end-to-end observation: the queueing delay the
// flow's packets currently experience (measured one RTT late by a real
// sender; the caller applies that lag).
func (a *AIMD) OnSlot(queueDelaySeconds float64) {
	a.counter++
	if queueDelaySeconds > a.DelayThreshold {
		a.rate /= 2
		if a.rate < 100e3 {
			a.rate = 100e3
		}
		a.counter = 0
		return
	}
	if a.counter >= a.rttSlots {
		a.rate += a.IncreaseBpsPerRTT
		a.counter = 0
	}
}

// Rate implements Controller.
func (a *AIMD) Rate() float64 { return a.rate }
