package eval

import (
	"fmt"
	"time"

	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/obs"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/sched"
	"nrscope/internal/telemetry"
	"nrscope/internal/traffic"
)

// UESpec describes one UE attached for a session.
type UESpec struct {
	// Model and SNRdB set the UE's link; SNRdB 0 means the cell default.
	Model channel.Model
	SNRdB float64
	// DL selects the downlink workload; ULbps adds a CBR uplink flow.
	DL    Workload
	ULbps float64
	// SessionSlots bounds the UE's stay (<0 = whole session).
	SessionSlots int
}

// Workload is a downlink traffic shape.
type Workload int

// Workloads (the paper's §5.2.2 mix: videos and file downloads, plus
// saturating and light flows for the capacity experiments).
const (
	WorkloadVideo Workload = iota
	WorkloadBulk
	WorkloadHeavy // cell-saturating backlog
	WorkloadFile
	WorkloadLight
	WorkloadNone
)

// factory builds the ran.UEFactory for a spec.
func (u UESpec) factory(cfg ran.CellConfig) ran.UEFactory {
	return func(rnti uint16, seed int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		snr := u.SNRdB
		if snr == 0 {
			snr = cfg.BaseSNRdB
		}
		ch := channel.New(u.Model, snr, seed)
		var dl traffic.Generator
		tti := cfg.TTI()
		switch u.DL {
		case WorkloadVideo:
			dl = traffic.NewVideo(30, 20000, 0.2, tti, seed)
		case WorkloadBulk:
			dl = traffic.NewBulk(4000)
		case WorkloadHeavy:
			dl = traffic.NewBulk(20000)
		case WorkloadFile:
			dl = traffic.NewFiniteFile(8<<20, 6000)
		case WorkloadLight:
			dl = traffic.NewOnOff(1e6, 200*time.Millisecond, 300*time.Millisecond, tti, seed)
		case WorkloadNone:
			dl = nil
		}
		var ul traffic.Generator
		if u.ULbps > 0 {
			ul = traffic.NewCBR(u.ULbps, tti)
		}
		return dl, ul, ch
	}
}

// SessionConfig describes one measurement run.
type SessionConfig struct {
	Cell ran.CellConfig

	// Scope reception path.
	ScopeModel channel.Model
	ScopeSNRdB float64
	ScopeOpts  []core.Option

	UEs        []UESpec
	Population *ran.Population

	// ProportionalFair swaps the cell's downlink scheduler from
	// round-robin to proportional-fair (the scheduler-inference
	// extension experiment observes the difference passively).
	ProportionalFair bool

	Slots int
	// SampleEvery sets the cadence (slots) of bitrate samples; 0 = 100.
	SampleEvery int
	Seed        int64
}

// BitrateSample pairs the scope's estimate with the ledger ground truth
// for one UE at one instant.
type BitrateSample struct {
	SlotIdx  int
	RNTI     uint16
	EstBps   float64
	GTBps    float64
	SpareBps float64 // fair-share spare capacity attributed to this UE
}

// SpareSample records the per-TTI used/spare REs for Fig. 14b.
type SpareSample struct {
	SlotIdx  int
	UsedREs  int
	TotalREs int
}

// SessionResult aggregates everything a figure needs.
type SessionResult struct {
	Config SessionConfig

	GT      []ran.GTRecord
	Records []telemetry.Record

	AcquiredSlot int
	Discovered   map[uint16]int // rnti -> slot the scope learned it
	AddedRNTIs   []uint16       // rntis attached via UEs specs

	Bitrates []BitrateSample
	Spares   []SpareSample

	Elapsed []time.Duration // per-processed-slot decode time

	// Obs holds the obs.Snapshot() counter deltas accumulated across
	// this session's slots (decode attempts, grants issued, and so on),
	// so figures and tests can assert the instrumented pipeline did the
	// work it claims. Gauge entries are point-in-time deltas and only
	// meaningful for sessions run back to back.
	Obs map[string]float64

	GNB   *ran.GNB
	Scope *core.Scope
}

// Run executes a session.
func Run(sc SessionConfig) (*SessionResult, error) {
	if sc.Slots < 1 {
		return nil, fmt.Errorf("eval: session needs Slots >= 1")
	}
	cell := sc.Cell
	if sc.Seed != 0 {
		cell.Seed = sc.Seed
	}
	gnb, err := ran.NewGNB(cell, sc.Slots+1)
	if err != nil {
		return nil, err
	}
	if sc.Population != nil {
		gnb.SetPopulation(*sc.Population)
	}
	if sc.ProportionalFair {
		gnb.UseSchedulers(sched.NewProportionalFair(), sched.NewRoundRobin())
	}
	scopeModel := sc.ScopeModel
	snr := sc.ScopeSNRdB
	if snr == 0 {
		snr = 25
	}
	rx := radio.NewReceiver(scopeModel, snr, cell.Seed^0xACE).Reuse(true)
	scope := core.New(cell.CellID, sc.ScopeOpts...)

	res := &SessionResult{
		Config:       sc,
		AcquiredSlot: -1,
		Discovered:   make(map[uint16]int),
		GNB:          gnb,
		Scope:        scope,
	}
	for _, spec := range sc.UEs {
		rnti := gnb.AddUE(spec.factory(cell), spec.SessionSlots)
		res.AddedRNTIs = append(res.AddedRNTIs, rnti)
	}

	sampleEvery := sc.SampleEvery
	if sampleEvery <= 0 {
		sampleEvery = 100
	}

	obsBefore := obs.Snapshot()
	for i := 0; i < sc.Slots; i++ {
		out := gnb.Step()
		cap := rx.Capture(out.SlotIdx, out.Ref, out.Grid)
		sr := scope.ProcessSlot(cap)

		res.GT = append(res.GT, out.GT...)
		res.Records = append(res.Records, sr.Records...)
		if sr.SIB1Acquired && res.AcquiredSlot < 0 {
			res.AcquiredSlot = sr.SlotIdx
		}
		for _, rnti := range sr.NewUEs {
			res.Discovered[rnti] = sr.SlotIdx
		}
		if out.Grid != nil {
			res.Elapsed = append(res.Elapsed, sr.Elapsed)
		}
		if sr.Spare != nil {
			res.Spares = append(res.Spares, SpareSample{
				SlotIdx: sr.SlotIdx, UsedREs: sr.Spare.UsedREs, TotalREs: sr.Spare.TotalREs,
			})
		}
		if out.SlotIdx%sampleEvery == 0 && out.SlotIdx > 0 {
			res.sampleBitrates(out.SlotIdx, sr)
		}
	}
	res.Obs = obs.Delta(obsBefore, obs.Snapshot())
	return res, nil
}

// sampleBitrates snapshots estimate-vs-ledger bitrates for every
// discovered UE.
func (r *SessionResult) sampleBitrates(slotIdx int, sr *core.SlotResult) {
	window := r.Scope.WindowSlots()
	for rnti, at := range r.Discovered {
		if slotIdx-at < window {
			continue // window not yet representative
		}
		ue := r.GNB.UE(rnti)
		if ue == nil || !ue.Connected() {
			continue
		}
		est := r.Scope.Bitrate(rnti, true, slotIdx)
		gt := ue.Ledger.WindowBitrate(slotIdx-window, slotIdx)
		s := BitrateSample{SlotIdx: slotIdx, RNTI: rnti, EstBps: est, GTBps: gt}
		if sr.Spare != nil {
			tti := r.Config.Cell.TTI().Seconds()
			s.SpareBps = spareBits(sr.Spare, rnti) / tti
		}
		r.Bitrates = append(r.Bitrates, s)
	}
}

// spareBits returns rnti's spare bits in a TTI's split, 0 when the UE
// was not active in it.
func spareBits(sp *telemetry.SpareCapacity, rnti uint16) float64 {
	for i, u := range sp.UEs {
		if u.RNTI == rnti {
			return sp.Bits(i)
		}
	}
	return 0
}
