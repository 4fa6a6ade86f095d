package shard

import (
	"strconv"

	"nrscope/internal/obs"
)

// met is the supervisor-wide instrumentation: deployment-level gauges
// only. Per-record counters live in per-shard instrument sets
// (shardMetrics) so shards never contend on a shared counter cache line
// in the ingest hot path; global totals are rolled up by Health() from
// the per-shard instruments instead.
var met = struct {
	shards *obs.Gauge
	cells  *obs.Gauge
}{
	shards: obs.Default.Gauge("nrscope_shard_shards",
		"shards the cell supervisor partitions its cells across"),
	cells: obs.Default.Gauge("nrscope_shard_cells",
		"cells registered with the shard supervisor"),
}

// shardMetrics is one shard's instrument set: the shard="<i>" children
// of the nrscope_shard_* families. Supervisors in the same process
// sharing a shard index share instruments (counters aggregate,
// Prometheus process semantics); per-supervisor truth lives in the
// shard's local atomics and is what Health() reports.
type shardMetrics struct {
	ingested *obs.Counter
	applied  *obs.Counter
	dropped  *obs.Counter
	rejected *obs.Counter
	depth    *obs.Gauge
	capacity *obs.Gauge
	restarts *obs.Counter
	ues      *obs.Gauge
}

// metricsFor resolves (or creates) the instrument set for a shard index.
// obs.Default returns the existing child for a repeated label value,
// so repeated calls for one shard index share one set.
func metricsFor(idx int) *shardMetrics {
	l := obs.Default.With("shard", strconv.Itoa(idx))
	return &shardMetrics{
		ingested: l.Counter("nrscope_shard_ingested_total", "records accepted into the shard's ingest queue"),
		applied:  l.Counter("nrscope_shard_applied_total", "records folded into the shard's history partition"),
		dropped:  l.Counter("nrscope_shard_dropped_total", "records dropped towards the shard (queue eviction under drop-oldest, or a fold that panicked)"),
		rejected: l.Counter("nrscope_shard_rejected_total", "records refused by the shard's closed queue"),
		depth:    l.Gauge("nrscope_shard_queue_depth", "records queued towards the shard (last sampled)"),
		capacity: l.Gauge("nrscope_shard_queue_capacity", "ingest ring queue capacity of the shard"),
		restarts: l.Counter("nrscope_shard_restarts_total", "folds in the shard that panicked and were recovered, each costing its record"),
		ues:      l.Gauge("nrscope_shard_ues_tracked", "UE series tracked by the shard's history partition; sum() over shards is the deployment's"),
	}
}
