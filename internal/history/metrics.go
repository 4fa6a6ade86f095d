package history

import "nrscope/internal/obs"

// met is the history subsystem's instrumentation, registered on the
// Default registry under the nrscope_history_* prefix.
var met = struct {
	ingested      *obs.Counter
	dropped       *obs.Counter
	late          *obs.Counter
	tracked       *obs.Gauge
	evicted       *obs.Counter
	queries       *obs.Counter
	retxSpikes    *obs.Counter
	tputCollapses *obs.Counter
}{
	ingested: obs.Default.Counter("nrscope_history_records_total",
		"telemetry records folded into the history store"),
	dropped: obs.Default.Counter("nrscope_history_dropped_total",
		"records dropped by the history store (unknown cell)"),
	late: obs.Default.Counter("nrscope_history_late_total",
		"records older than the retained bin window, not folded in"),
	tracked: obs.Default.Gauge("nrscope_history_ues_tracked",
		"UE series currently retained, summed over every history store"),
	evicted: obs.Default.Counter("nrscope_history_ues_evicted_total",
		"UE series evicted (LRU cap or idle horizon)"),
	queries: obs.Default.Counter("nrscope_history_queries_total",
		"history queries served (Go and HTTP APIs)"),
	retxSpikes: obs.Default.Counter("nrscope_history_anomaly_retx_spike_total",
		"per-UE retx-rate spike anomalies flagged"),
	tputCollapses: obs.Default.Counter("nrscope_history_anomaly_tput_collapse_total",
		"per-UE throughput collapse anomalies flagged"),
}
