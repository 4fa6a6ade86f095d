package ran

import (
	"math"
	"math/rand"
	"time"

	"nrscope/internal/channel"
	"nrscope/internal/harq"
	"nrscope/internal/sched"
	"nrscope/internal/traffic"
)

// connState tracks a UE through the RACH procedure of the paper's Fig. 2.
type connState int

const (
	stateWaitPRACH connState = iota // waiting for a PRACH occasion (MSG 1)
	stateWaitMSG2                   // preamble sent, RAR pending
	stateWaitMSG3                   // RAR received, MSG 3 PUSCH pending
	stateWaitMSG4                   // MSG 3 sent, RRC Setup pending
	stateConnected
	stateDeparted
)

// inflightTB is a transport block awaiting HARQ completion.
type inflightTB struct {
	tbs          int // bits
	payloadBytes int // actual MAC SDU bytes inside (rest is padding)
	mcsIdx       int
	nprb         int
	ndi          uint8
	attempts     int
	downlink     bool
}

// macOverheadBytes approximates the MAC/RLC header per transport block.
const macOverheadBytes = 3

// UE is one simulated device attached (or attaching) to the cell.
type UE struct {
	RNTI uint16 // TC-RNTI during RACH, promoted to C-RNTI at MSG4

	ch      *channel.Channel
	cqi     int
	cqiAge  int
	lastSNR float64

	dlGen traffic.Generator
	ulGen traffic.Generator

	dlQueueBits int
	ulQueueBits int

	harqDL *harq.Entity
	harqUL *harq.Entity

	inflight map[int]*inflightTB // key: harq id (DL); UL keys offset by 100
	retxDue  map[int][]sched.RetxRequest

	// Ledger is the tcpdump substitute recording delivered DL bytes.
	Ledger *traffic.Ledger

	state      connState
	departSlot int // slot at which the UE leaves (-1 = never)
	msgDue     int // slot of the next RACH step

	// Pending uplink control (sent on the next UL-capable slot).
	cqiDue      bool
	pendingAcks []pendingAck
}

// pendingAck is HARQ feedback awaiting its PUCCH occasion.
type pendingAck struct {
	harqID int
	ack    bool
	due    int
}

// Connected reports whether the UE completed RACH.
func (u *UE) Connected() bool { return u.state == stateConnected }

// CQI returns the UE's latest channel quality report.
func (u *UE) CQI() int { return u.cqi }

// DLQueueBits returns the current downlink queue depth.
func (u *UE) DLQueueBits() int { return u.dlQueueBits }

// cqiPeriodSlots is the periodic CQI reporting interval. The staleness
// between reports is exactly why fast-fading channels (Vehicle, Urban)
// draw retransmissions: the scheduler acts on an SNR the channel has
// already left (Fig. 15).
const cqiPeriodSlots = 8

// stepChannel advances the UE's fading process one TTI; the CQI report
// refreshes only on its periodic occasions.
func (u *UE) stepChannel() float64 {
	snr := u.ch.NextSlot()
	u.lastSNR = snr
	u.cqiAge++
	if u.cqi == 0 || u.cqiAge >= cqiPeriodSlots {
		u.cqi = channel.CQI(snr)
		u.cqiAge = 0
		u.cqiDue = true // report on the next PUCCH occasion
	}
	return snr
}

// pullTraffic moves newly arrived bytes into the queues.
func (u *UE) pullTraffic() {
	if u.dlGen != nil {
		u.dlQueueBits += 8 * u.dlGen.NextSlot()
	}
	if u.ulGen != nil {
		u.ulQueueBits += 8 * u.ulGen.NextSlot()
	}
}

// UEFactory builds the traffic and channel for a new UE.
type UEFactory func(rnti uint16, seed int64) (dl, ul traffic.Generator, ch *channel.Channel)

// DefaultUEFactory attaches a video-like downlink and light uplink to a
// Normal channel at the cell's base SNR.
func DefaultUEFactory(cfg CellConfig) UEFactory {
	return func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		tti := cfg.TTI()
		dl := traffic.NewVideo(30, 15000, 0.2, tti, seed)
		ul := traffic.NewCBR(200e3, tti)
		ch := channel.New(channel.Normal, cfg.BaseSNRdB, seed^0x5EED)
		return dl, ul, ch
	}
}

// Population generates UE churn: Poisson arrivals with heavy-tailed
// session durations, calibrated to the paper's Fig. 10 finding that
// ~90% of UEs stay under 35 s.
type Population struct {
	// ArrivalsPerSecond is the Poisson arrival rate.
	ArrivalsPerSecond float64
	// MedianSessionSeconds and SessionSigma parameterise the log-normal
	// session duration.
	MedianSessionSeconds float64
	SessionSigma         float64
	// MaxUEs caps concurrent UEs (RAN admission control).
	MaxUEs int
}

// DefaultPopulation mirrors a busy commercial cell (Fig. 10 cell 1).
func DefaultPopulation() Population {
	return Population{
		ArrivalsPerSecond:    1.0,
		MedianSessionSeconds: 6,
		SessionSigma:         1.3,
		MaxUEs:               128,
	}
}

// sampleSessionSlots draws a session duration in slots.
func (p Population) sampleSessionSlots(rng *rand.Rand, tti time.Duration) int {
	d := p.MedianSessionSeconds * math.Exp(p.SessionSigma*rng.NormFloat64())
	slots := int(d / tti.Seconds())
	if slots < 2 {
		slots = 2
	}
	return slots
}

// arrivalsThisSlot draws the Poisson arrival count for one TTI.
func (p Population) arrivalsThisSlot(rng *rand.Rand, tti time.Duration) int {
	lambda := p.ArrivalsPerSecond * tti.Seconds()
	// Knuth's method is fine at these tiny lambdas.
	l := math.Exp(-lambda)
	k := 0
	acc := 1.0
	for {
		acc *= rng.Float64()
		if acc <= l {
			return k
		}
		k++
		if k > 16 {
			return k
		}
	}
}
