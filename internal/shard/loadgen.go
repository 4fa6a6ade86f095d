package shard

import (
	"fmt"
	"time"

	"nrscope/internal/phy"
	"nrscope/internal/telemetry"
	"nrscope/internal/traffic"
)

// MetroLoad synthesizes the telemetry stream of a metro deployment —
// the ROADMAP's "metro capture" scenario (e.g. 200 cells × 512 tracked
// UEs) — without paying for 200 symbol-level cell simulations: each
// cell's offered load is modulated by internal/traffic generators (a
// frame-paced video burst over a CBR floor, the paper's typical mix)
// and scheduled round-robin over the cell's C-RNTIs at a PDCCH-realistic
// grants-per-slot budget. The stream is deterministic for a seed, so
// benchmarks comparing shard counts replay identical load.
// Kept: bench/'s metro workload is its one production caller.
type MetroLoad struct {
	mu    phy.Numerology
	ttiMS float64
	ues   int
	cells []metroCell
}

// grantsPerSlot is the per-cell DCI budget per TTI — roughly what one
// CORESET's CCE space sustains for small aggregation levels.
const grantsPerSlot = 8

// metroCell is one simulated cell's load state.
type metroCell struct {
	id    uint16
	video *traffic.Video
	floor *traffic.CBR
	next  int // round-robin C-RNTI cursor
	grant int // monotone grant counter (drives retx/UL/MCS variation)
}

// NewMetroLoad builds a generator for cells × uesPerCell sessions at
// the numerology's TTI. Cell IDs are 1..cells; C-RNTIs start at 0x4601
// per cell. Kept: bench/'s metro workload is its one production caller.
func NewMetroLoad(cells, uesPerCell int, mu phy.Numerology, seed int64) (*MetroLoad, error) {
	if cells < 1 || cells > 0xFFFF {
		return nil, fmt.Errorf("shard: metro load needs 1..65535 cells, got %d", cells)
	}
	if uesPerCell < 1 {
		return nil, fmt.Errorf("shard: metro load needs >= 1 UE per cell, got %d", uesPerCell)
	}
	if !mu.Valid() {
		return nil, fmt.Errorf("shard: invalid numerology")
	}
	tti := mu.SlotDuration()
	m := &MetroLoad{
		mu:    mu,
		ttiMS: float64(tti) / float64(time.Millisecond),
		ues:   uesPerCell,
		cells: make([]metroCell, cells),
	}
	for i := range m.cells {
		m.cells[i] = metroCell{
			id: uint16(i + 1),
			// ~48 Mbit/s of video bursts + a 2 Mbit/s floor per cell.
			video: traffic.NewVideo(30, 200000, 0.2, tti, seed+int64(i)),
			floor: traffic.NewCBR(2e6, tti),
		}
	}
	return m, nil
}

// CellID returns the i-th cell's id.
func (m *MetroLoad) CellID(i int) uint16 { return m.cells[i].id }

// Register adds every scenario cell to a supervisor.
func (m *MetroLoad) Register(sup *Supervisor) error {
	for i := range m.cells {
		if _, err := sup.AddCell(m.cells[i].id, m.mu); err != nil {
			return err
		}
	}
	return nil
}

// Slot generates one TTI of records for every cell, invoking emit per
// record, and reports how many records were emitted. Cells with no
// arriving bytes this slot stay silent (bursty load, like real cells).
func (m *MetroLoad) Slot(slotIdx int, emit func(cell uint16, rec telemetry.Record)) int {
	n := 0
	for i := range m.cells {
		n += m.cells[i].slot(slotIdx, m.ttiMS, m.ues, emit)
	}
	return n
}

func (c *metroCell) slot(slotIdx int, ttiMS float64, ues int, emit func(cell uint16, rec telemetry.Record)) int {
	budget := c.video.NextSlot() + c.floor.NextSlot()
	if budget <= 0 {
		return 0
	}
	grants := grantsPerSlot
	if grants > ues {
		grants = ues
	}
	tbs := budget * 8 / grants
	if tbs < 256 {
		tbs, grants = 256, budget*8/256
		if grants < 1 {
			grants = 1
		}
	}
	for g := 0; g < grants; g++ {
		rnti := uint16(0x4601 + (c.next+g)%ues)
		c.grant++
		downlink := c.grant%5 != 0 // 1-in-5 grants is an uplink flow
		mcs := 10 + (c.grant>>3)%16
		rec := telemetry.Record{
			SlotIdx:  slotIdx,
			SFN:      slotIdx / 20,
			Slot:     slotIdx % 20,
			RNTI:     rnti,
			Downlink: downlink,
			Format:   "1_1",
			TBS:      tbs,
			NumPRB:   4 + mcs/4,
			NRE:      (4 + mcs/4) * 12 * 12,
			MCS:      mcs,
			Qm:       6,
			R:        0.6,
			AggLevel: 2,
			StartCCE: (g * 2) % 16,
			HARQID:   c.grant % 16,
			IsRetx:   c.grant%23 == 0, // ~4% HARQ retransmissions
			TMs:      float64(slotIdx) * ttiMS,
		}
		if !downlink {
			rec.Format = "0_1"
		}
		emit(c.id, rec)
	}
	c.next = (c.next + grants) % ues
	return grants
}
