// Package nrscope is a Go reproduction of "NR-Scope: A Practical 5G
// Standalone Telemetry Tool" (CoNEXT 2024): a passive telemetry engine
// that recovers per-UE throughput, channel quality, retransmissions and
// spare RAN capacity from a 5G Standalone cell's control channel,
// without operator, phone, or UE cooperation.
//
// Because this reproduction is pure software (no SDR hardware), the
// repository also contains a complete symbol-level 5G SA RAN simulator —
// gNB, schedulers, HARQ, RACH, channel models — that stands in for the
// USRP front end and the live cells of the paper's evaluation; see
// DESIGN.md for the substitution map and EXPERIMENTS.md for the
// reproduced figures.
//
// This package is the public facade: it re-exports the telemetry engine
// (internal/core), its options, and a Testbed that wires a simulated
// cell to the scope for quick starts:
//
//	tb, _ := nrscope.NewTestbed(nrscope.AmarisoftPreset, 1)
//	tb.AttachUE(nrscope.UEProfile{})
//	for i := 0; i < 20000; i++ {
//	    res := tb.Step()
//	    for _, rec := range res.Records { ... }
//	}
package nrscope

import (
	"fmt"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/telemetry"
	"nrscope/internal/traffic"
)

// Re-exported engine types. Scope is the paper's telemetry engine;
// DecodePool its Fig.-4 worker pool, shared by many cells.
type (
	// Scope is the NR-Scope telemetry engine (one per monitored cell).
	Scope = core.Scope
	// SlotResult is the per-TTI output of the engine.
	SlotResult = core.SlotResult
	// Option configures the engine.
	Option = core.Option
	// DecodePool is the shared multi-cell decode worker pool: per-cell
	// slot order stays strict while cells decode concurrently, with
	// work-stealing across the registered cells.
	DecodePool = core.DecodePool
	// Record is one decoded DCI's telemetry row.
	Record = telemetry.Record
	// Capture is one received slot from the radio front end.
	Capture = radio.Capture
	// UEActivity summarises one observed UE session.
	UEActivity = core.UEActivity
	// Bus is the in-process telemetry distribution bus (internal/bus):
	// bounded per-sink queues, batching, backpressure policies, and
	// managed pluggable sinks.
	Bus = bus.Bus
)

// Engine options, re-exported from the core package.
var (
	// WithVerifyMSG4 toggles RRC-Setup PDSCH verification of new UEs.
	WithVerifyMSG4 = core.WithVerifyMSG4
	// WithInactivityTimeout ages out silent UEs after n slots.
	WithInactivityTimeout = core.WithInactivityTimeout
	// WithIdleHorizon ages out silent UEs after a wall-clock duration
	// (converted to slots once the cell's numerology is known).
	WithIdleHorizon = core.WithIdleHorizon
	// WithDMRSGate toggles the candidate occupancy pre-filter.
	WithDMRSGate = core.WithDMRSGate
)

// NewBus creates an empty telemetry distribution bus; publish records
// onto it with Bus.Publish and add sinks via bus.Subscribe /
// bus.NewTCPServer / bus sink constructors (see internal/bus).
func NewBus() *Bus { return bus.New() }

// New creates a telemetry engine for the cell with the given physical
// cell id.
func New(cellID uint16, opts ...Option) *Scope { return core.New(cellID, opts...) }

// NewDecodePool creates a shared decode pool; register each cell's
// scope with AddCell, then Start, then feed it captures (for example
// from Testbed.StepRaw) with Submit.
func NewDecodePool(workers, queueDepth int) *DecodePool {
	return core.NewDecodePool(workers, queueDepth)
}

// Preset selects one of the evaluation cells of the paper (§5.1).
type Preset int

// Cell presets.
const (
	// SrsRANPreset is the srsRAN/Open5GS cell: 20 MHz TDD at 30 kHz SCS.
	SrsRANPreset Preset = iota
	// MosolabPreset is the Mosolabs/Aether CBRS small cell.
	MosolabPreset
	// AmarisoftPreset is the Amari Callbox (up to 64 emulated UEs).
	AmarisoftPreset
	// TMobile1Preset is commercial cell 1: FDD n25, 10 MHz.
	TMobile1Preset
	// TMobile2Preset is commercial cell 2: FDD n71, 15 MHz.
	TMobile2Preset
)

// cell returns the preset's RAN configuration.
func (p Preset) cell() (ran.CellConfig, error) {
	switch p {
	case SrsRANPreset:
		return ran.SrsRANCell(), nil
	case MosolabPreset:
		return ran.MosolabCell(), nil
	case AmarisoftPreset:
		return ran.AmarisoftCell(), nil
	case TMobile1Preset:
		return ran.TMobileCell(1), nil
	case TMobile2Preset:
		return ran.TMobileCell(2), nil
	default:
		return ran.CellConfig{}, fmt.Errorf("nrscope: unknown preset %d", int(p))
	}
}

// UEProfile describes a simulated UE attached to a testbed cell.
type UEProfile struct {
	// Mobility selects the channel model: "static" (default),
	// "pedestrian", "vehicle", "urban", "awgn".
	Mobility string
	// DownlinkMbps is the mean downlink demand (0 = 30 fps video at
	// ~4.8 Mbit/s, the paper's typical UE).
	DownlinkMbps float64
	// UplinkKbps adds an uplink flow (0 = 200 kbit/s).
	UplinkKbps float64
	// SessionSeconds bounds the UE's stay (0 = whole run).
	SessionSeconds float64
}

func (u UEProfile) model() channel.Model {
	switch u.Mobility {
	case "", "static":
		return channel.Normal
	case "awgn":
		return channel.AWGN
	case "pedestrian":
		return channel.Pedestrian
	case "vehicle", "moving":
		return channel.Vehicle
	case "urban", "blocked":
		return channel.Urban
	default:
		return channel.Normal
	}
}

// Testbed is a self-contained simulated cell + radio + telemetry engine,
// replacing the USRP-and-live-cell setup of the paper for software-only
// experimentation.
type Testbed struct {
	GNB   *ran.GNB
	RX    *radio.Receiver
	Scope *Scope
}

// NewTestbed builds a testbed on a preset cell. seed controls all
// randomness; scope options may be appended.
func NewTestbed(p Preset, seed int64, opts ...Option) (*Testbed, error) {
	cfg, err := p.cell()
	if err != nil {
		return nil, err
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	gnb, err := ran.NewGNB(cfg, 1<<21)
	if err != nil {
		return nil, err
	}
	return &Testbed{
		GNB:   gnb,
		RX:    radio.NewReceiver(channel.Normal, 22, cfg.Seed^0xACE).Reuse(true),
		Scope: New(cfg.CellID, opts...),
	}, nil
}

// AttachUE admits a UE that will RACH at the next occasion. It returns
// the C-RNTI the cell will assign.
func (tb *Testbed) AttachUE(profile UEProfile) uint16 {
	cfg := tb.GNB.Config()
	tti := cfg.TTI()
	factory := func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		var dl traffic.Generator
		if profile.DownlinkMbps > 0 {
			dl = traffic.NewCBR(profile.DownlinkMbps*1e6, tti)
		} else {
			dl = traffic.NewVideo(30, 20000, 0.2, tti, seed)
		}
		ulKbps := profile.UplinkKbps
		if ulKbps == 0 {
			ulKbps = 200
		}
		ul := traffic.NewCBR(ulKbps*1e3, tti)
		ch := channel.New(profile.model(), cfg.BaseSNRdB, seed)
		return dl, ul, ch
	}
	session := -1
	if profile.SessionSeconds > 0 {
		session = int(profile.SessionSeconds / tti.Seconds())
	}
	return tb.GNB.AddUE(factory, session)
}

// Step advances the whole chain one TTI and returns the scope's output.
func (tb *Testbed) Step() *SlotResult {
	_, res := tb.StepCapture()
	return res
}

// StepCapture advances one TTI and returns both the radio capture (for
// recording, see internal/capfile) and the scope's output. The capture
// grid is reused on the second-following step.
func (tb *Testbed) StepCapture() (*Capture, *SlotResult) {
	out := tb.GNB.Step()
	cap := tb.RX.Capture(out.SlotIdx, out.Ref, out.Grid)
	return cap, tb.Scope.ProcessSlot(cap)
}

// StepRaw advances one TTI and returns the radio capture WITHOUT
// running the scope — for feeding a DecodePool, which decodes it on a
// worker. It disables the receiver's capture-buffer recycling: queued
// captures must own their grids.
func (tb *Testbed) StepRaw() *Capture {
	tb.RX.Reuse(false)
	out := tb.GNB.Step()
	return tb.RX.Capture(out.SlotIdx, out.Ref, out.Grid)
}

// TTI returns the testbed cell's slot duration.
func (tb *Testbed) TTI() time.Duration { return tb.GNB.Config().TTI() }

// RunFor advances the testbed for a wall-clock-equivalent duration,
// invoking fn (if non-nil) on every slot result.
func (tb *Testbed) RunFor(d time.Duration, fn func(*SlotResult)) {
	slots := int(d / tb.TTI())
	for i := 0; i < slots; i++ {
		res := tb.Step()
		if fn != nil {
			fn(res)
		}
	}
}
