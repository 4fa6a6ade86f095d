package history

// The first anomaly layer over the history store: when a UE's bin
// closes, its retx rate and throughput are compared against a trailing
// EWMA baseline. A retx rate far above baseline flags a retx spike
// (interference, cell-edge mobility); throughput falling to a small
// fraction of a substantial baseline flags a throughput collapse (the
// cross-layer misbehavior-detection substrate of Ganiuly et al.).
// Anomalies are counted via internal/obs and retained in a bounded ring
// queryable through Anomalies() and GET /history/anomalies.

import "fmt"

// Detector thresholds.
const (
	// anomalyAlpha is the EWMA smoothing factor of both baselines.
	anomalyAlpha = 0.3
	// retxRateMin is the absolute retx-rate floor a bin must exceed to
	// be a spike candidate.
	retxRateMin = 0.3
	// retxSpikeFactor is how far above the EWMA baseline the rate must be.
	retxSpikeFactor = 3
	// minGrants is the minimum grants in a bin for its retx rate to be
	// meaningful.
	minGrants = 4
	// collapseFraction: throughput below this fraction of baseline is a
	// collapse.
	collapseFraction = 0.25
	// tputFloorBits: baselines below this many bits/bin never flag a
	// collapse — an idle UE is not a collapsed UE.
	tputFloorBits = 10000
)

// Anomaly kinds.
const (
	KindRetxSpike    = "retx_spike"
	KindTputCollapse = "tput_collapse"
)

// Anomaly is one flagged event.
type Anomaly struct {
	Cell uint16 `json:"cell"`
	RNTI uint16 `json:"rnti"`
	Kind string `json:"kind"`
	// AtMs is the start of the offending bin, in ms.
	AtMs float64 `json:"t_ms"`
	// Value is the observed metric (retx rate, or bits in the bin).
	Value float64 `json:"value"`
	// Baseline is the trailing EWMA the value was judged against.
	Baseline float64 `json:"baseline"`
}

// String formats an anomaly for log lines.
func (a Anomaly) String() string {
	return fmt.Sprintf("%s cell=%d ue=0x%04x t=%.0fms value=%.3g baseline=%.3g",
		a.Kind, a.Cell, a.RNTI, a.AtMs, a.Value, a.Baseline)
}

// anomalyState is the per-UE trailing baseline.
type anomalyState struct {
	init      bool
	ewmaRetx  float64 // retx rate baseline (updated on bins with grants)
	ewmaTput  float64 // bits/bin baseline (updated on every closed bin)
	collapsed bool    // latch: one collapse flag per silence episode
}

// binClosed runs the detector on a UE's freshly closed bin. Called with
// the store lock held, from the ingest path's series.advance.
func (st *Store) binClosed(u *ueSeries, b Bin, binIdx int64) {
	a := &u.anom
	rate := 0.0
	if b.Grants > 0 {
		rate = float64(b.Retx) / float64(b.Grants)
	}
	bits := float64(b.DLBits + b.ULBits)

	if a.init {
		if b.Grants >= minGrants && rate >= retxRateMin && rate >= retxSpikeFactor*a.ewmaRetx {
			st.addAnomalyLocked(Anomaly{
				Cell: u.key.cell, RNTI: u.key.rnti, Kind: KindRetxSpike,
				AtMs: float64(binIdx) * st.binMS, Value: rate, Baseline: a.ewmaRetx,
			})
			met.retxSpikes.Inc()
		}
		if a.ewmaTput >= tputFloorBits && bits <= collapseFraction*a.ewmaTput {
			if !a.collapsed {
				a.collapsed = true
				st.addAnomalyLocked(Anomaly{
					Cell: u.key.cell, RNTI: u.key.rnti, Kind: KindTputCollapse,
					AtMs: float64(binIdx) * st.binMS, Value: bits, Baseline: a.ewmaTput,
				})
				met.tputCollapses.Inc()
			}
		} else {
			a.collapsed = false
		}
	}

	if !a.init {
		a.init = true
		a.ewmaRetx = rate
		a.ewmaTput = bits
		return
	}
	if b.Grants > 0 {
		a.ewmaRetx = anomalyAlpha*rate + (1-anomalyAlpha)*a.ewmaRetx
	}
	a.ewmaTput = anomalyAlpha*bits + (1-anomalyAlpha)*a.ewmaTput
}

// anomalyRing is a bounded FIFO of flagged anomalies.
type anomalyRing struct {
	buf  []Anomaly
	head int // next write position once full
	n    int
}

func newAnomalyRing(depth int) anomalyRing {
	return anomalyRing{buf: make([]Anomaly, depth)}
}

// add appends one anomaly, returning the event it pushed out of a full
// ring (ok=true) so the caller can spill it to the lake.
func (r *anomalyRing) add(a Anomaly) (evicted Anomaly, ok bool) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = a
		r.n++
		return Anomaly{}, false
	}
	evicted = r.buf[r.head]
	r.buf[r.head] = a
	r.head = (r.head + 1) % len(r.buf)
	return evicted, true
}

// snapshot returns the retained anomalies, oldest first.
func (r *anomalyRing) snapshot() []Anomaly {
	out := make([]Anomaly, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// addAnomalyLocked appends an anomaly to the bounded ring, handing any
// overwritten event to the lake. Caller holds st.mu.
func (st *Store) addAnomalyLocked(a Anomaly) {
	if old, evicted := st.anoms.add(a); evicted && st.lake != nil {
		st.lake.SpillAnomaly(old)
	}
}

// Anomalies returns the retained anomaly events, oldest first. With a
// lake attached, events that the bounded ring already pushed out are
// merged back in from disk ahead of the retained ones.
func (st *Store) Anomalies() []Anomaly {
	st.mu.RLock()
	defer st.mu.RUnlock()
	ram := st.anoms.snapshot()
	if st.lake == nil {
		return ram
	}
	spilled := st.lake.Anomalies()
	if len(spilled) == 0 {
		return ram
	}
	return append(spilled, ram...)
}
