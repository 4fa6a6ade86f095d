// Package harq implements Hybrid-ARQ process bookkeeping on both sides
// of the air interface (paper §3.2.2): the gNB-side entity that assigns
// processes and toggles the new-data indicator (NDI), and the passive
// tracker NR-Scope runs — an array of previous NDIs per harq_id per UE,
// where an un-toggled NDI on the same process means a retransmission.
package harq

import "fmt"

// MaxProcesses is the per-UE HARQ process count (paper: "up to 16").
const MaxProcesses = 16

// process is one gNB-side HARQ process.
type process struct {
	active bool
	ndi    uint8
	tbs    int
}

// Entity is the gNB-side HARQ state for one UE and one direction.
type Entity struct {
	procs [MaxProcesses]process
	rr    int // round-robin allocation pointer
}

// NewEntity returns an empty HARQ entity.
func NewEntity() *Entity { return &Entity{} }

// Allocate grabs a free process for a new transport block of size tbs
// bits, toggling its NDI. It returns the process id and the NDI value to
// signal in the DCI, or ok=false when all processes are busy (the
// scheduler must then hold off new data for this UE).
func (e *Entity) Allocate(tbs int) (id int, ndi uint8, ok bool) {
	for i := 0; i < MaxProcesses; i++ {
		p := (e.rr + i) % MaxProcesses
		if !e.procs[p].active {
			e.procs[p].active = true
			e.procs[p].ndi ^= 1
			e.procs[p].tbs = tbs
			e.rr = (p + 1) % MaxProcesses
			return p, e.procs[p].ndi, true
		}
	}
	return 0, 0, false
}

// Retransmit re-issues the TB held by process id, keeping the NDI
// un-toggled (that is exactly the signal NR-Scope detects). It returns
// the NDI to signal and the stored TBS.
func (e *Entity) Retransmit(id int) (ndi uint8, tbs int, err error) {
	if id < 0 || id >= MaxProcesses || !e.procs[id].active {
		return 0, 0, fmt.Errorf("harq: retransmit on inactive process %d", id)
	}
	return e.procs[id].ndi, e.procs[id].tbs, nil
}

// Cancel aborts a freshly allocated TB whose DCI was never transmitted
// (e.g. PDCCH blocking): the process is freed and the NDI toggle undone,
// so the next real TB on this process still reads as new data.
func (e *Entity) Cancel(id int) error {
	if id < 0 || id >= MaxProcesses || !e.procs[id].active {
		return fmt.Errorf("harq: cancel on inactive process %d", id)
	}
	e.procs[id].active = false
	e.procs[id].ndi ^= 1
	return nil
}

// Ack releases process id after the UE acknowledged the TB.
func (e *Entity) Ack(id int) error {
	if id < 0 || id >= MaxProcesses || !e.procs[id].active {
		return fmt.Errorf("harq: ack on inactive process %d", id)
	}
	e.procs[id].active = false
	return nil
}

// Tracker is NR-Scope's passive retransmission detector for one UE and
// one direction (paper §3.2.2): it records the NDI seen for each
// harq_id; a repeated NDI on the same process marks a retransmission.
type Tracker struct {
	ndi  [MaxProcesses]uint8
	seen [MaxProcesses]bool

	total int
	retx  int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Observe processes one decoded DCI's (harq_id, ndi) pair and reports
// whether it is a retransmission. The first observation of a process is
// always new data.
func (t *Tracker) Observe(harqID int, ndi uint8) (retx bool) {
	if harqID < 0 || harqID >= MaxProcesses {
		return false
	}
	t.total++
	if t.seen[harqID] && t.ndi[harqID] == ndi&1 {
		t.retx++
		return true
	}
	t.seen[harqID] = true
	t.ndi[harqID] = ndi & 1
	return false
}

// Stats returns the observed totals: all transmissions and detected
// retransmissions.
func (t *Tracker) Stats() (total, retransmissions int) {
	return t.total, t.retx
}
