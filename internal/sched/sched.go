// Package sched implements the gNB-side MAC downlink/uplink schedulers
// of the simulated RAN: round-robin (what srsRAN-class small cells run)
// and proportional-fair. The scheduler decides, per TTI, which UEs get
// PRBs, how many, and at what MCS — the decisions NR-Scope later
// recovers from the air by decoding the resulting DCIs.
package sched

import (
	"fmt"
	"sort"

	"nrscope/internal/channel"
	"nrscope/internal/dci"
	"nrscope/internal/mcs"
)

// RetxRequest asks the scheduler to re-send a pending HARQ transport
// block: same TBS, same NDI, highest priority.
type RetxRequest struct {
	HARQID int
	TBS    int
	NDI    uint8
	MCS    int
	NPRB   int // PRBs of the original transmission
}

// Request is one UE's scheduling state for a TTI.
type Request struct {
	RNTI      uint16
	QueueBits int // new data waiting
	CQI       int // latest channel quality report
	Retx      []RetxRequest
}

// Allocation is one scheduled transmission within the TTI.
type Allocation struct {
	RNTI     uint16
	StartPRB int
	NumPRB   int
	TimeRow  int // row in phy.DefaultTimeAllocTable
	MCS      int
	TBS      int // transport block size the allocation carries
	IsRetx   bool
	HARQID   int   // meaningful when IsRetx
	NDI      uint8 // meaningful when IsRetx
}

// Region is the contiguous PRB span available for data in this TTI
// (control regions and broadcast blocks are carved out by the caller).
type Region struct {
	StartPRB int
	NumPRB   int
	TimeRow  int // time-domain row for data this slot
	Link     dci.LinkConfig
}

// Scheduler allocates a TTI's region among the requesting UEs.
type Scheduler interface {
	// Name identifies the policy in logs and benches.
	Name() string
	// Schedule returns non-overlapping allocations within the region.
	Schedule(slot int, reqs []Request, region Region) []Allocation
}

// maxMCSForCQI converts a CQI report into the highest safe MCS index.
func maxMCSForCQI(cqi int, table mcs.Table) int {
	return table.IndexForEfficiency(channel.CQIEfficiency(cqi))
}

// Size finds the smallest PRB count (up to maxPRB) whose TBS covers
// wantBits at the given MCS and time-allocation row; see sizeAllocation.
func Size(wantBits, mcsIdx, maxPRB, timeRow int, link dci.LinkConfig) (nprb, tbs int) {
	return sizeAllocation(wantBits, mcsIdx, maxPRB, timeRow, link)
}

// sizeAllocation finds the smallest PRB count (up to maxPRB) whose TBS
// covers wantBits at the given MCS, and returns (nprb, tbs). When even
// maxPRB cannot cover the queue it returns maxPRB and its TBS.
func sizeAllocation(wantBits, mcsIdx, maxPRB, timeRow int, link dci.LinkConfig) (int, int) {
	if maxPRB < 1 {
		return 0, 0
	}
	ta := timeRowSymbols(timeRow)
	lo, hi := 1, maxPRB
	tbsAt := func(nprb int) int {
		res, err := mcs.Compute(mcs.TBSParams{
			NPRB: nprb, NSymbols: ta, DMRSPerPRB: link.DMRSPerPRB,
			Overhead: link.Overhead, Layers: link.Layers,
			MCSIndex: mcsIdx, Table: link.Table,
		})
		if err != nil {
			return 0
		}
		return res.TBS
	}
	if tbsAt(maxPRB) < wantBits {
		return maxPRB, tbsAt(maxPRB)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if tbsAt(mid) >= wantBits {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, tbsAt(lo)
}

func timeRowSymbols(row int) int {
	// Avoid importing phy for one lookup; rows mirror
	// phy.DefaultTimeAllocTable (validated in tests).
	symbols := []int{12, 10, 8, 6, 4, 6, 10, 2}
	if row < 0 || row >= len(symbols) {
		return 12
	}
	return symbols[row]
}

// allocate packs one UE's transmissions (retransmissions first, then new
// data) into the remaining region. It returns the allocations and the
// new next-free PRB.
func allocate(req Request, region Region, nextPRB int) ([]Allocation, int) {
	var out []Allocation
	free := func() int { return region.StartPRB + region.NumPRB - nextPRB }

	for _, rx := range req.Retx {
		nprb := rx.NPRB
		if nprb > free() {
			break // cannot fit the retransmission this TTI
		}
		out = append(out, Allocation{
			RNTI: req.RNTI, StartPRB: nextPRB, NumPRB: nprb,
			TimeRow: region.TimeRow, MCS: rx.MCS, TBS: rx.TBS,
			IsRetx: true, HARQID: rx.HARQID, NDI: rx.NDI,
		})
		nextPRB += nprb
	}
	if req.QueueBits > 0 && free() > 0 {
		m := maxMCSForCQI(req.CQI, region.Link.Table)
		nprb, tbs := sizeAllocation(req.QueueBits, m, free(), region.TimeRow, region.Link)
		if nprb > 0 && tbs > 0 {
			out = append(out, Allocation{
				RNTI: req.RNTI, StartPRB: nextPRB, NumPRB: nprb,
				TimeRow: region.TimeRow, MCS: m, TBS: tbs,
			})
			nextPRB += nprb
		}
	}
	return out, nextPRB
}

// RoundRobin serves UEs in rotating order, giving each its full demand
// before moving on — the policy of the srsRAN/Amarisoft class of cells
// under moderate load.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "round-robin" }

// Schedule implements Scheduler.
func (r *RoundRobin) Schedule(slot int, reqs []Request, region Region) (out []Allocation) {
	if len(reqs) == 0 || region.NumPRB < 1 {
		return nil
	}
	defer func() { observeSchedule(out, region) }()
	nextPRB := region.StartPRB
	start := r.next % len(reqs)
	for i := 0; i < len(reqs); i++ {
		req := reqs[(start+i)%len(reqs)]
		var allocs []Allocation
		allocs, nextPRB = allocate(req, region, nextPRB)
		out = append(out, allocs...)
		if nextPRB >= region.StartPRB+region.NumPRB {
			break
		}
	}
	r.next++
	return out
}

// ProportionalFair prioritises UEs by the ratio of their instantaneous
// achievable rate to their EWMA-served throughput.
type ProportionalFair struct {
	// Beta is the EWMA coefficient for the served-rate average.
	Beta float64
	avg  map[uint16]float64
}

// NewProportionalFair returns a PF scheduler with the standard beta.
func NewProportionalFair() *ProportionalFair {
	return &ProportionalFair{Beta: 0.05, avg: make(map[uint16]float64)}
}

// Name implements Scheduler.
func (p *ProportionalFair) Name() string { return "proportional-fair" }

// Schedule implements Scheduler.
func (p *ProportionalFair) Schedule(slot int, reqs []Request, region Region) (out []Allocation) {
	if len(reqs) == 0 || region.NumPRB < 1 {
		return nil
	}
	defer func() { observeSchedule(out, region) }()
	type scored struct {
		req      Request
		priority float64
	}
	order := make([]scored, 0, len(reqs))
	for _, req := range reqs {
		inst := channel.CQIEfficiency(req.CQI)
		avg := p.avg[req.RNTI]
		if avg < 1e-9 {
			avg = 1e-9
		}
		order = append(order, scored{req: req, priority: inst / avg})
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].priority > order[b].priority })

	nextPRB := region.StartPRB
	served := make(map[uint16]float64, len(reqs))
	for _, s := range order {
		var allocs []Allocation
		allocs, nextPRB = allocate(s.req, region, nextPRB)
		for _, a := range allocs {
			served[a.RNTI] += float64(a.TBS)
		}
		out = append(out, allocs...)
		if nextPRB >= region.StartPRB+region.NumPRB {
			break
		}
	}
	// EWMA update for every requester, including the unserved.
	for _, req := range reqs {
		p.avg[req.RNTI] = (1-p.Beta)*p.avg[req.RNTI] + p.Beta*served[req.RNTI]
	}
	return out
}

// Forget drops PF state for a departed UE.
func (p *ProportionalFair) Forget(rnti uint16) { delete(p.avg, rnti) }

// Validate checks an allocation set for region containment and overlap.
// Kept: it is the reference check the scheduler tests assert with, and
// internal/ran's TestSchedulersValidInGNB holds both schedulers to it on
// every Schedule the gNB makes.
func Validate(allocs []Allocation, region Region) error {
	end := region.StartPRB + region.NumPRB
	sorted := append([]Allocation(nil), allocs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].StartPRB < sorted[b].StartPRB })
	prev := region.StartPRB
	for _, a := range sorted {
		if a.NumPRB < 1 {
			return fmt.Errorf("sched: empty allocation for %#x", a.RNTI)
		}
		if a.StartPRB < prev {
			return fmt.Errorf("sched: overlap at PRB %d (rnti %#x)", a.StartPRB, a.RNTI)
		}
		if a.StartPRB+a.NumPRB > end {
			return fmt.Errorf("sched: allocation beyond region end (rnti %#x)", a.RNTI)
		}
		prev = a.StartPRB + a.NumPRB
	}
	return nil
}
