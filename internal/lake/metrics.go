package lake

import "nrscope/internal/obs"

// met is the lake's instrumentation, registered on the Default
// registry under the nrscope_lake_* prefix. Every lake open in the
// process adds into the same instruments; see share for the gauges.
var met = struct {
	segments      *obs.Gauge
	bytes         *obs.Gauge
	spilledBins   *obs.Counter
	spilledAnoms  *obs.Counter
	dropped       *obs.Counter
	compactions   *obs.Counter
	retired       *obs.Counter
	recovered     *obs.Counter
	crcErrors     *obs.Counter
	writeErrors   *obs.Counter
	writeSeconds  *obs.Histogram
	readSeconds   *obs.Histogram
	queuedEntries *obs.Gauge
}{
	segments: obs.Default.Gauge("nrscope_lake_segments",
		"segment files currently live in the lake"),
	bytes: obs.Default.Gauge("nrscope_lake_bytes",
		"total bytes across live segment files"),
	spilledBins: obs.Default.Counter("nrscope_lake_spilled_bins_total",
		"history bins spilled from RAM rings into the lake"),
	spilledAnoms: obs.Default.Counter("nrscope_lake_spilled_anomalies_total",
		"anomaly events spilled from the bounded ring into the lake"),
	dropped: obs.Default.Counter("nrscope_lake_dropped_total",
		"spilled entries dropped because the spill queue was full"),
	compactions: obs.Default.Counter("nrscope_lake_compactions_total",
		"segment compaction passes that merged files"),
	retired: obs.Default.Counter("nrscope_lake_retired_segments_total",
		"segments deleted by the retention horizon"),
	recovered: obs.Default.Counter("nrscope_lake_recovered_segments_total",
		"unsealed segments recovered by CRC scan at open"),
	crcErrors: obs.Default.Counter("nrscope_lake_crc_errors_total",
		"blocks discarded for CRC or framing errors"),
	writeErrors: obs.Default.Counter("nrscope_lake_write_errors_total",
		"segment write or manifest append failures"),
	writeSeconds: obs.Default.Histogram("nrscope_lake_write_seconds",
		"latency of one spill-batch flush to disk", obs.LatencyBuckets),
	readSeconds: obs.Default.Histogram("nrscope_lake_read_seconds",
		"latency of one lake-backed series read", obs.LatencyBuckets),
	queuedEntries: obs.Default.Gauge("nrscope_lake_queue_depth",
		"spilled entries waiting for the background writer"),
}
