package core

import (
	"time"

	"nrscope/internal/pucch"
	"nrscope/internal/radio"
)

// UCIReport is one uplink control report decoded off the air — the
// paper's §7 "UCI decoding" future-work output: scheduling requests and
// CQI from the uplink channel, useful for uplink scheduling analysis.
type UCIReport struct {
	SlotIdx int
	RNTI    uint16
	UCI     pucch.UCI
}

// UplinkResult is the outcome of processing one uplink-carrier capture.
type UplinkResult struct {
	SlotIdx int
	Reports []UCIReport
	Elapsed time.Duration
}

// ProcessUplinkSlot decodes the PUCCH resources of every tracked UE from
// an uplink-carrier capture. It requires the UE list built by the
// downlink pipeline (UCI is scrambled per-RNTI, so only C-RNTIs learned
// from MSG 4 are readable) and does not mutate tracking state.
func (s *Scope) ProcessUplinkSlot(cap *radio.Capture) *UplinkResult {
	start := time.Now()
	res := &UplinkResult{SlotIdx: cap.SlotIdx}
	defer func() { res.Elapsed = time.Since(start) }()
	if cap.Grid == nil || len(s.tracked.rntis) == 0 {
		return res
	}
	for _, rnti := range s.tracked.rntis {
		if uci, ok := pucch.Decode(cap.Grid, rnti, s.cellID, cap.N0); ok {
			res.Reports = append(res.Reports, UCIReport{SlotIdx: cap.SlotIdx, RNTI: rnti, UCI: uci})
		}
	}
	return res
}
