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
// from MSG 4 are readable) and does not mutate tracking state. Each UE's
// resource was computed when it entered the tracked set, and the decode
// scratch is the Scope's: like ProcessSlot, it must not run concurrently
// with another call on the same Scope.
func (s *Scope) ProcessUplinkSlot(cap *radio.Capture) *UplinkResult {
	start := time.Now()
	res := &UplinkResult{SlotIdx: cap.SlotIdx}
	defer func() { res.Elapsed = time.Since(start) }()
	if cap.Grid == nil || len(s.tracks) == 0 {
		return res
	}
	res.Reports = s.decodeUplink(make([]UCIReport, 0, len(s.tracks)), cap)
	return res
}

// decodeUplink appends to dst the report of every tracked UE whose UCI
// decodes from the capture, in tracked order.
func (s *Scope) decodeUplink(dst []UCIReport, cap *radio.Capture) []UCIReport {
	for _, track := range s.tracks {
		if uci, ok := s.uplink.Decode(cap.Grid, &track.uplink, cap.N0); ok {
			dst = append(dst, UCIReport{SlotIdx: cap.SlotIdx, RNTI: track.RNTI, UCI: uci})
		}
	}
	return dst
}
