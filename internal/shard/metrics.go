package shard

import (
	"strconv"
	"sync"

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
	ues    *obs.Gauge
}{
	shards: obs.Default.Gauge("nrscope_shard_shards",
		"shards the cell supervisor partitions its cells across"),
	cells: obs.Default.Gauge("nrscope_shard_cells",
		"cells registered with the shard supervisor"),
	ues: obs.Default.Gauge("nrscope_shard_ues_tracked",
		"UE series tracked across all shard history partitions"),
}

// shardMetrics is one shard's instrument set, registered under the
// nrscope_shard_<i>_* prefix. Supervisors in the same process sharing a
// shard index share instruments (counters aggregate, Prometheus process
// semantics); per-supervisor truth lives in the shard's local atomics
// and is what Health() reports.
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

var (
	shardMetricsMu    sync.Mutex
	shardMetricsCache = map[int]*shardMetrics{}
)

// metricsFor resolves (or creates) the instrument set for a shard index.
func metricsFor(idx int) *shardMetrics {
	shardMetricsMu.Lock()
	defer shardMetricsMu.Unlock()
	if m, ok := shardMetricsCache[idx]; ok {
		return m
	}
	i := strconv.Itoa(idx)
	p := "nrscope_shard_" + i + "_"
	m := &shardMetrics{
		ingested: obs.Default.Counter(p+"ingested_total",
			"records accepted into shard "+i+"'s ingest queue"),
		applied: obs.Default.Counter(p+"applied_total",
			"records folded into shard "+i+"'s history partition"),
		dropped: obs.Default.Counter(p+"dropped_total",
			"records dropped towards shard "+i+" (queue eviction under drop-oldest, or a fold that panicked)"),
		rejected: obs.Default.Counter(p+"rejected_total",
			"records refused by shard "+i+"'s closed queue"),
		depth: obs.Default.Gauge(p+"queue_depth",
			"records queued towards shard "+i+" (last sampled)"),
		capacity: obs.Default.Gauge(p+"queue_capacity",
			"ingest ring queue capacity of shard "+i),
		restarts: obs.Default.Counter(p+"restarts_total",
			"folds in shard "+i+" that panicked and were recovered, each costing its record"),
		ues: obs.Default.Gauge(p+"ues_tracked",
			"UE series tracked by shard "+i+"'s history partition"),
	}
	shardMetricsCache[idx] = m
	return m
}
