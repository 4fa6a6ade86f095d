package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"nrscope/internal/channel"
	"nrscope/internal/phy"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
	"nrscope/internal/traffic"
)

// scopeSNRdB is the receiver's mean SNR: the paper's bench-top distance
// to the cell.
const scopeSNRdB = 22

// slotRec is one recorded slot: what the radio delivered on both
// carriers and what the cell knows it sent. The program under test is
// handed DL and UL only; GT and UCI stay with the harness for the
// correctness count.
type slotRec struct {
	SlotIdx int
	DL      radio.Capture // Grid nil on pure-uplink slots
	UL      radio.Capture // Grid nil when no UE transmits control
	GT      []ran.GTRecord
	UCI     []ran.UCIGT

	dlBuf, ulBuf *phy.Grid // owned storage the captures point into
}

// cellSource is the load generator: an Amarisoft-preset cell with nUE
// UEs (30 fps video down, 200 kbit/s CBR up, static channel) and the
// scope's two receivers, all seeded from one seed. It records slots
// into caller-owned chunks, so a long recording streams through a fixed
// amount of memory.
type cellSource struct {
	cfg   ran.CellConfig
	nUE   int
	gnb   *ran.GNB
	rx    *radio.Receiver
	ulRX  *radio.Receiver
	slots int
	// dlSlots bounds how many slots of the downlink carrier are
	// recorded (-1: all) and ulOff drops the uplink carrier, for replays
	// that do not read them.
	dlSlots int
	ulOff   bool

	// Time spent in the cell and in the radio (captures of a carrier
	// that transmitted), for the generator's own per-layer numbers.
	stepNs, captureNs int64
	captures          int

	sum hash.Hash64
	buf [8]byte
}

func newCellSource(seed int64, nUE int) (*cellSource, error) {
	cfg := ran.AmarisoftCell()
	cfg.Seed = seed
	// A one-slot ledger horizon: the delivered-byte ground truth is not
	// used here and would otherwise grow with the recording.
	gnb, err := ran.NewGNB(cfg, 1)
	if err != nil {
		return nil, err
	}
	factory := func(rnti uint16, s int64) (traffic.Generator, traffic.Generator, *channel.Channel) {
		return traffic.NewVideo(30, 15000, 0.2, cfg.TTI(), s),
			traffic.NewCBR(200e3, cfg.TTI()),
			channel.New(channel.Normal, cfg.BaseSNRdB, s)
	}
	for i := 0; i < nUE; i++ {
		gnb.AddUE(factory, -1)
	}
	return &cellSource{
		cfg:     cfg,
		nUE:     nUE,
		gnb:     gnb,
		rx:      radio.NewReceiver(channel.Normal, scopeSNRdB, seed^0xACE).Reuse(true),
		ulRX:    radio.NewReceiver(channel.Normal, scopeSNRdB, seed^0x1301).Reuse(true),
		sum:     fnv.New64a(),
		dlSlots: -1,
	}, nil
}

// fill records the next len(chunk) slots into chunk.
func (s *cellSource) fill(chunk []slotRec) {
	for i := range chunk {
		t0 := time.Now()
		out := s.gnb.Step()
		t1 := time.Now()
		s.stepNs += int64(t1.Sub(t0))
		r := &chunk[i]
		r.SlotIdx = out.SlotIdx
		r.DL = radio.Capture{SlotIdx: out.SlotIdx, Ref: out.Ref}
		if s.dlSlots < 0 || s.slots < s.dlSlots {
			r.DL = *s.capture(s.rx, out, out.Grid)
			r.DL.Grid = own(&r.dlBuf, r.DL.Grid)
		}
		r.UL = radio.Capture{SlotIdx: out.SlotIdx, Ref: out.Ref}
		if !s.ulOff {
			r.UL = *s.capture(s.ulRX, out, out.ULGrid)
			r.UL.Grid = own(&r.ulBuf, r.UL.Grid)
		}
		r.GT = append(r.GT[:0], out.GT...)
		r.UCI = append(r.UCI[:0], out.UCIGT...)
		s.digestSlot(r)
		s.slots++
	}
}

// capture receives one carrier of a slot, timing the radio alone.
func (s *cellSource) capture(rx *radio.Receiver, out *ran.SlotOutput, tx *phy.Grid) *radio.Capture {
	t := time.Now()
	c := rx.Capture(out.SlotIdx, out.Ref, tx)
	if tx != nil {
		s.captureNs += int64(time.Since(t))
		s.captures++
	}
	return c
}

// own copies a receiver-owned grid (valid only until the receiver's
// second-following capture) into the chunk's storage.
func own(buf **phy.Grid, g *phy.Grid) *phy.Grid {
	if g == nil {
		return nil
	}
	if *buf == nil {
		*buf = phy.NewGrid(g.NumPRB)
	}
	copy((*buf).Samples(), g.Samples())
	return *buf
}

// digestSlot folds a slot into the recording digest: the ground truth
// and a stride of the received samples, enough that two recordings with
// the same digest are the same recording for every purpose here.
func (s *cellSource) digestSlot(r *slotRec) {
	s.put(uint64(r.SlotIdx))
	for _, g := range r.GT {
		s.put(uint64(g.RNTI)<<32 | uint64(uint32(g.Grant.TBS)))
	}
	for _, u := range r.UCI {
		s.put(uint64(u.RNTI)<<8 | uint64(u.UCI.CQI))
	}
	for _, g := range []*phy.Grid{r.DL.Grid, r.UL.Grid} {
		if g == nil {
			continue
		}
		samples := g.Samples()
		for i := 0; i < len(samples); i += 97 {
			s.put(math.Float64bits(real(samples[i])))
		}
	}
}

func (s *cellSource) put(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:], v)
	s.sum.Write(s.buf[:])
}

// digest identifies everything recorded so far.
func (s *cellSource) digest() uint64 { return s.sum.Sum64() }
