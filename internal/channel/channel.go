// Package channel provides the wireless channel models the evaluation
// needs: per-slot SNR processes for the channel profiles the paper's
// Fig. 15 emulates (Normal, AWGN, Pedestrian, Vehicle, Urban), a
// log-distance path-loss model for the Fig. 13 floor-coverage sweep, a
// BLER model that links the gNB's MCS choice to retransmission
// probability, and the CQI quantisation UEs report for link adaptation.
//
// Fading is modelled as an AR(1) (Gauss-Markov) process on the dB-domain
// SNR — a standard discrete-time approximation of block fading whose
// coherence parameter plays the role of Doppler: pedestrian channels
// decorrelate slowly, vehicular ones quickly (DESIGN.md §2).
package channel

import (
	"fmt"
	"math"
	"math/rand"
)

// Model enumerates the channel profiles of the paper's §5.4.2 evaluation.
type Model int

// Channel models. Normal is the lab default (static UE, good signal);
// AWGN adds white noise only; Pedestrian/Vehicle/Urban follow the 3GPP
// channel-emulator profiles in spirit.
const (
	Normal Model = iota
	AWGN
	Pedestrian
	Vehicle
	Urban
)

// Models lists all profiles in display order (as in Fig. 15).
var Models = []Model{Normal, AWGN, Pedestrian, Vehicle, Urban}

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case Normal:
		return "Normal"
	case AWGN:
		return "AWGN"
	case Pedestrian:
		return "Pedestrian"
	case Vehicle:
		return "Vehicle"
	case Urban:
		return "Urban"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// params returns (mean SNR offset dB, fading std dB, AR(1) coherence per
// slot). The offsets stack on the configured base SNR.
func (m Model) params() (offset, sigma, rho float64) {
	switch m {
	case Normal:
		return 0, 0.5, 0.99
	case AWGN:
		return -2, 0, 0
	case Pedestrian:
		return -4, 3.5, 0.995
	case Vehicle:
		return -6, 5, 0.92
	case Urban:
		return -10, 8, 0.93
	default:
		return 0, 0, 0
	}
}

// Channel is a per-link SNR process. It is not safe for concurrent use;
// create one per UE (and one for the scope's own reception path).
type Channel struct {
	mean  float64 // mean SNR in dB after the model offset
	sigma float64
	rho   float64
	state float64 // zero-mean AR(1) deviation in dB
	rng   *rand.Rand
}

// New creates a channel with the given base mean SNR (dB) and seed.
func New(model Model, baseSNRdB float64, seed int64) *Channel {
	off, sigma, rho := model.params()
	c := &Channel{
		mean:  baseSNRdB + off,
		sigma: sigma,
		rho:   rho,
		rng:   rand.New(rand.NewSource(seed)),
	}
	if sigma > 0 {
		c.state = c.rng.NormFloat64() * sigma
	}
	return c
}

// NextSlot advances the fading process one TTI and returns the slot's
// SNR in dB.
func (c *Channel) NextSlot() float64 {
	if c.sigma > 0 {
		// AR(1): state' = rho*state + sqrt(1-rho^2)*sigma*w.
		c.state = c.rho*c.state + math.Sqrt(1-c.rho*c.rho)*c.sigma*c.rng.NormFloat64()
	}
	return c.mean + c.state
}

// SNRdBToN0 converts an SNR in dB (for unit-energy symbols) to the noise
// variance N0 the demapper consumes.
func SNRdBToN0(snrdB float64) float64 {
	return math.Pow(10, -snrdB/10)
}

// Efficiency estimates achievable spectral efficiency (bits/RE) at an
// SNR, as attenuated Shannon capacity — the standard link-abstraction
// used by system simulators.
func Efficiency(snrdB float64) float64 {
	lin := math.Pow(10, snrdB/10)
	eff := 0.75 * math.Log2(1+lin)
	if eff > 7.4 {
		eff = 7.4 // cap just below 256QAM R=0.948 * 8
	}
	return eff
}

// RequiredSNRdB inverts Efficiency: the SNR needed to support eff.
func RequiredSNRdB(eff float64) float64 {
	return 10 * math.Log10(math.Exp2(eff/0.75)-1)
}

// BLER models the first-transmission block error rate when a transport
// block at spectral efficiency eff is sent over a slot with the given
// SNR: a steep sigmoid in the dB gap between required and actual SNR
// (50% at threshold, ~1% with 2 dB headroom), the familiar waterfall of
// coded links. Together with the CQI reporting delay it drives the
// retransmission ratios of Fig. 15.
func BLER(eff, snrdB float64) float64 {
	gap := snrdB - RequiredSNRdB(eff) // positive = headroom
	p := 1 / (1 + math.Exp(2.2*gap))
	if p < 1e-4 {
		p = 1e-4
	}
	return p
}

// CQI quantises an SNR into the 0..15 CQI range (TS 38.214 Table
// 5.2.2.1-2 in spirit: CQI 15 ≈ 256QAM R=0.93, CQI 1 ≈ QPSK R=0.08).
func CQI(snrdB float64) int {
	// CQI thresholds spaced ~1.9 dB apart starting at -6 dB.
	cqi := int(math.Floor((snrdB + 6) / 1.9))
	if cqi < 0 {
		cqi = 0
	}
	if cqi > 15 {
		cqi = 15
	}
	return cqi
}

// CQIEfficiency maps a CQI back to the target spectral efficiency the
// gNB's link adaptation should aim at, with a 2 dB safety backoff (the
// usual outer-loop margin against quantisation and report staleness).
func CQIEfficiency(cqi int) float64 {
	if cqi <= 0 {
		return 0.1
	}
	snr := float64(cqi)*1.9 - 6
	eff := Efficiency(snr - 2)
	if eff < 0.1 {
		eff = 0.1
	}
	return eff
}

// PathLoss computes a log-distance indoor/outdoor path loss in dB:
// PL(d) = PL0 + 10·n·log10(d/d0) + walls. Used for the Fig. 13 floor
// sweep and the Fig. 6 commercial-cell distances.
type PathLoss struct {
	PL0      float64 // loss at the reference distance, dB
	RefDist  float64 // reference distance d0, metres
	Exponent float64 // path-loss exponent n
	WalldB   float64 // additional fixed penetration loss
}

// DefaultIndoor is a typical indoor office model (n = 3).
func DefaultIndoor() PathLoss {
	return PathLoss{PL0: 40, RefDist: 1, Exponent: 3, WalldB: 0}
}

// DB returns the path loss at distance d metres.
func (p PathLoss) DB(d float64) float64 {
	if d < p.RefDist {
		d = p.RefDist
	}
	return p.PL0 + 10*p.Exponent*math.Log10(d/p.RefDist) + p.WalldB
}

// SNRAt computes the receive SNR at distance d for a transmit power
// (dBm) and receiver noise floor (dBm).
func (p PathLoss) SNRAt(d, txPowerDBm, noiseFloorDBm float64) float64 {
	return txPowerDBm - p.DB(d) - noiseFloorDBm
}
