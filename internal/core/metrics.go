package core

import "nrscope/internal/obs"

// met is the core package's instrument set, resolved once from the
// Default registry: the decode pool and scope record with single atomic
// ops on the hot path. Metrics follow process-wide Prometheus
// semantics — they aggregate across every Scope/DecodePool in the
// process (gauges reflect the most recent writer).
var met = struct {
	// Shared multi-cell decode pool (Fig. 4 worker pool).
	poolWorkers   *obs.Gauge
	poolSubmitted *obs.Counter
	poolDecoded   *obs.Counter
	poolSteals    *obs.Counter
	poolPanics    *obs.Counter

	// Scope decode path.
	decodeLatency  *obs.Histogram
	slots          *obs.Counter
	positions      *obs.Counter
	positionsEmpty *obs.Counter
	candAttempted  *obs.Counter
	candMatched    *obs.Counter
	decodeFailed   *obs.Counter
	crntiRecovers  *obs.Counter
	msg4Hits       *obs.Counter
	mibAcquired    *obs.Counter
	sib1Acquired   *obs.Counter
	uesTracked     *obs.Gauge
}{
	poolWorkers: obs.Default.Gauge("nrscope_decode_pool_workers",
		"workers in the most recently started decode pool"),
	poolSubmitted: obs.Default.Counter("nrscope_decode_pool_slots_submitted_total",
		"captures accepted into decode pool cell queues"),
	poolDecoded: obs.Default.Counter("nrscope_decode_pool_slots_decoded_total",
		"captures decoded by pool workers"),
	poolSteals: obs.Default.Counter("nrscope_decode_pool_steals_total",
		"cell claims taken by a worker outside its home set"),
	poolPanics: obs.Default.Counter("nrscope_decode_pool_slot_panics_total",
		"slots dropped because the cell's decode or result handler panicked"),

	decodeLatency: obs.Default.Histogram("nrscope_scope_decode_latency_seconds",
		"per-slot signal-processing + DCI-decoding time (Fig. 12)", obs.LatencyBuckets),
	slots: obs.Default.Counter("nrscope_scope_slots_processed_total",
		"slot captures run through decodeSlot"),
	positions: obs.Default.Counter("nrscope_scope_blind_positions_decoded_total",
		"RNTI-independent candidate positions polar-decoded per the position cache"),
	positionsEmpty: obs.Default.Counter("nrscope_scope_blind_positions_empty_total",
		"candidate positions skipped because no transmission is possible there (payload exceeds the aggregation level's capacity)"),
	candAttempted: obs.Default.Counter("nrscope_scope_blind_candidates_attempted_total",
		"CRC evaluations of the blind decode (CSS candidate decodes + one per decoded UE-search-space position)"),
	candMatched: obs.Default.Counter("nrscope_scope_blind_candidates_matched_total",
		"candidates that CRC-checked and translated into grants"),
	decodeFailed: obs.Default.Counter("nrscope_scope_decode_failures_total",
		"candidate decodes rejected (polar/CRC/unpack/grant errors)"),
	crntiRecovers: obs.Default.Counter("nrscope_scope_crnti_recoveries_total",
		"RNTIs recovered from DCI CRC XOR in the common search space"),
	msg4Hits: obs.Default.Counter("nrscope_scope_msg4_hits_total",
		"MSG4 discoveries (new-UE C-RNTI candidates accepted)"),
	mibAcquired: obs.Default.Counter("nrscope_scope_mib_acquired_total",
		"MIB acquisitions merged into scope state"),
	sib1Acquired: obs.Default.Counter("nrscope_scope_sib1_acquired_total",
		"SIB1 acquisitions merged into scope state"),
	uesTracked: obs.Default.Gauge("nrscope_scope_ues_tracked",
		"C-RNTIs currently tracked, summed over every scope"),
}
