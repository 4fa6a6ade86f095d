package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"nrscope/internal/fusion"
	"nrscope/internal/history"
)

// The cross-shard rollup layer: queries that span the whole deployment
// are answered by fanning out to every shard's partition and merging —
// cheap, because each partition is already bounded and internally
// indexed. http.go serves them.

// ShardHealth is one shard's health and backpressure report. Restarts
// counts the folds that panicked and were recovered; Stalled is worked
// out on read: records are queued and the worker has been on one batch
// for at least Config.StallTimeout.
type ShardHealth struct {
	Shard         int      `json:"shard"`
	Cells         int      `json:"cells"`
	QueueDepth    int      `json:"queue_depth"`
	QueueCapacity int      `json:"queue_capacity"`
	Ingested      int64    `json:"ingested_total"`
	Applied       int64    `json:"applied_total"`
	Dropped       int64    `json:"dropped_total"`
	Rejected      int64    `json:"rejected_total"`
	Restarts      int64    `json:"restarts_total"`
	Stalled       bool     `json:"stalled"`
	TrackedUEs    int      `json:"tracked_ues"`
	CellIDs       []uint16 `json:"cell_ids,omitempty"`
}

// Rollup is the deployment-wide health roll-up: global gauges plus the
// per-shard reports they sum over.
type Rollup struct {
	Shards     int           `json:"shards"`
	Cells      int           `json:"cells"`
	TrackedUEs int           `json:"tracked_ues"`
	Ingested   int64         `json:"ingested_total"`
	Applied    int64         `json:"applied_total"`
	Dropped    int64         `json:"dropped_total"`
	Restarts   int64         `json:"restarts_total"`
	PerShard   []ShardHealth `json:"per_shard"`
}

// Health reports every shard's state from its local accounting (not the
// process-global obs instruments, which aggregate across supervisors).
func (s *Supervisor) Health() Rollup {
	r := Rollup{Shards: len(s.shards), Cells: len(s.route)}
	now := time.Now().UnixNano()
	for _, sh := range s.shards {
		depth := sh.q.Len()
		busy := sh.busySince.Load()
		h := ShardHealth{
			Shard:         sh.idx,
			Cells:         sh.cells,
			QueueDepth:    depth,
			QueueCapacity: s.cfg.queueSize,
			Ingested:      sh.ingested.Load(),
			Applied:       sh.applied.Load(),
			Dropped:       sh.dropped.Load(),
			Rejected:      sh.rejected.Load(),
			Restarts:      sh.restarts.Load(),
			Stalled: s.cfg.StallTimeout > 0 && depth > 0 && busy != 0 &&
				time.Duration(now-busy) >= s.cfg.StallTimeout,
			TrackedUEs: sh.store.TrackedUEs(),
			CellIDs:    append([]uint16(nil), sh.cellIDs...),
		}
		r.TrackedUEs += h.TrackedUEs
		r.Ingested += h.Ingested
		r.Applied += h.Applied
		r.Dropped += h.Dropped
		r.Restarts += h.Restarts
		r.PerShard = append(r.PerShard, h)
	}
	return r
}

// TopK fuses every partition's TopK into one deployment-wide ranking.
// The partitions rank at once: every shard after the first on its own
// goroutine, the first on the caller's, so one shard costs no goroutine.
// Each partition returns its own top k (the global top k is a subset of
// the union); the merge concatenates them in shard order, re-sorts and
// truncates, and the first error in shard order is returned. An empty
// ranking is [] (not nil), as is every list the rollup layer returns,
// so the HTTP API encodes it as [] rather than null.
func (s *Supervisor) TopK(metric string, window time.Duration, k int) ([]history.UERank, error) {
	ranks := make([][]history.UERank, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := 1; i < len(s.shards); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ranks[i], errs[i] = s.shards[i].store.TopK(metric, window, k)
		}()
	}
	ranks[0], errs[0] = s.shards[0].store.TopK(metric, window, k)
	wg.Wait()
	all := []history.UERank{}
	for i, r := range ranks {
		if errs[i] != nil {
			return nil, errs[i]
		}
		all = append(all, r...)
	}
	slices.SortFunc(all, history.CompareRanks)
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// Snapshot merges every partition's history snapshot: cells are
// disjoint across partitions, so the per-cell summaries concatenate and
// the totals sum.
func (s *Supervisor) Snapshot() history.Snapshot {
	out := history.Snapshot{Cells: []history.CellSummary{}}
	for i, sh := range s.shards {
		snap := sh.store.Snapshot()
		if i == 0 {
			out.BinMs, out.Depth, out.MaxUEs = snap.BinMs, snap.Depth, snap.MaxUEs
		}
		out.TrackedUEs += snap.TrackedUEs
		out.Anomalies += snap.Anomalies
		if snap.LastMs > out.LastMs {
			out.LastMs = snap.LastMs
		}
		out.Cells = append(out.Cells, snap.Cells...)
	}
	sort.Slice(out.Cells, func(i, j int) bool { return out.Cells[i].Cell < out.Cells[j].Cell })
	return out
}

// Anomalies merges every partition's flagged anomaly events in time
// order (ties by cell, then RNTI), so the list does not depend on how
// the cells are partitioned.
func (s *Supervisor) Anomalies() []history.Anomaly {
	out := []history.Anomaly{}
	for _, sh := range s.shards {
		out = append(out, sh.store.Anomalies()...)
	}
	slices.SortStableFunc(out, func(a, b history.Anomaly) int {
		return cmp.Or(cmp.Compare(a.AtMs, b.AtMs), cmp.Compare(a.Cell, b.Cell), cmp.Compare(a.RNTI, b.RNTI))
	})
	return out
}

// Handovers merges every shard's fusion handover candidates (empty
// without Fusion). Candidates are detected within a shard's cells;
// cross-shard pairs are not matched — cell partitioning trades that for
// failure isolation.
func (s *Supervisor) Handovers() []fusion.Handover {
	out := []fusion.Handover{}
	for _, sh := range s.shards {
		if sh.agg == nil {
			continue
		}
		sh.applyMu.Lock()
		hos := sh.agg.Handovers()
		sh.applyMu.Unlock()
		out = append(out, hos...)
	}
	slices.SortFunc(out, fusion.CompareHandovers)
	return out
}

// CellLoad reports a cell's fused session accounting from the
// aggregator of the shard that owns it: the mean downlink load in bits/s
// (fusion.Aggregator.CellLoad) and the retained and recently active UE
// sessions (fusion.Aggregator.ActiveUEs). It fails for an unknown cell
// or without Fusion.
func (s *Supervisor) CellLoad(cellID uint16, now, window time.Duration) (bps float64, sessions, recent int, err error) {
	sh, ok := s.route[cellID]
	if !ok || sh.agg == nil {
		return 0, 0, 0, fmt.Errorf("shard: no fusion aggregator for cell %d", cellID)
	}
	sh.applyMu.Lock()
	defer sh.applyMu.Unlock()
	if bps, err = sh.agg.CellLoad(cellID); err != nil {
		return 0, 0, 0, err
	}
	sessions, recent, err = sh.agg.ActiveUEs(cellID, now, window)
	return bps, sessions, recent, err
}

// CarrierAggregation merges every shard's carrier-aggregation
// candidates above minOverlap (empty without Fusion).
func (s *Supervisor) CarrierAggregation(minOverlap float64) []fusion.CACandidate {
	out := []fusion.CACandidate{}
	for _, sh := range s.shards {
		if sh.agg == nil {
			continue
		}
		sh.applyMu.Lock()
		cas := sh.agg.CarrierAggregation(minOverlap)
		sh.applyMu.Unlock()
		out = append(out, cas...)
	}
	slices.SortFunc(out, fusion.CompareCA)
	return out
}
