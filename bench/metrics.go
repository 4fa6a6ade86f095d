package main

import "fmt"

// decl declares one metric: BENCHMARK.json carries the same list, and a
// run that emits a different set of names fails.
type decl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEndDecls are the numbers a user of the system would see. Every
// workload reports every one of them; what an operation is differs by
// workload (README.md, "Workloads"). Bounds are at least three times
// the widest quartile spread any workload showed across ten seeds on
// the reference box, and twice the ~10 % by which the box's speed
// drifts between sets of runs minutes apart (README.md, "Spread
// study").
var endToEndDecls = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"op_mean_us", "us", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.20},
	{"op_p95_us", "us", "lower", 0.20},
	{"throughput_per_s", "1/s", "higher", 0.25},
}

// perLayerDecls are single layers' costs and counts, from the traced
// run. They carry no bound: they explain a change in an end-to-end
// number, they do not gate it.
var perLayerDecls = []decl{
	{Name: "core.replay_slots_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.slot_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.slots_over_tti_frac", Unit: "frac", Better: "lower"},
	{Name: "core.records_per_slot", Unit: "count", Better: "higher"},
	{Name: "core.positions_per_slot", Unit: "count", Better: "lower"},
	{Name: "core.candidates_attempted_per_slot", Unit: "count", Better: "lower"},
	{Name: "core.candidates_matched_frac", Unit: "frac", Better: "higher"},
	{Name: "core.decode_failed_per_slot", Unit: "count", Better: "lower"},
	{Name: "core.css_rnti_recovers_per_slot", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_slot", Unit: "count", Better: "lower"},
	{Name: "core.heap_bytes_per_slot", Unit: "B", Better: "lower"},
	{Name: "core.attributed_frac", Unit: "frac", Better: "higher"},
	{Name: "pdcch.occupancy_us", Unit: "us", Better: "lower"},
	{Name: "pdcch.decode_candidate_us", Unit: "us", Better: "lower"},
	{Name: "modulation.demap_qpsk_ns_per_sym", Unit: "ns", Better: "lower"},
	{Name: "bits.gold_ns_per_bit", Unit: "ns", Better: "lower"},
	{Name: "bits.descramble_ns_per_llr", Unit: "ns", Better: "lower"},
	{Name: "bits.match_dci_crc_ns", Unit: "ns", Better: "lower"},
	{Name: "bits.recover_rnti_ns", Unit: "ns", Better: "lower"},
	{Name: "polar.decode_us", Unit: "us", Better: "lower"},
	{Name: "phy.slot_candidates_ns", Unit: "ns", Better: "lower"},
	{Name: "dci.unpack_to_grant_ns", Unit: "ns", Better: "lower"},
	{Name: "pdsch.decode_us", Unit: "us", Better: "lower"},
	{Name: "pdsch.decode_pbch_us", Unit: "us", Better: "lower"},
	{Name: "convcode.decode_long_us", Unit: "us", Better: "lower"},
	{Name: "convcode.decode_short_us", Unit: "us", Better: "lower"},
	{Name: "pucch.decode_active_us", Unit: "us", Better: "lower"},
	{Name: "pucch.decode_idle_ns", Unit: "ns", Better: "lower"},
	{Name: "pucch.active_frac", Unit: "frac", Better: "lower"},
	{Name: "telemetry.from_grant_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.estimator_add_ns", Unit: "ns", Better: "lower"},
	{Name: "bus.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "bus.batch_records_mean", Unit: "count", Better: "higher"},
	{Name: "bus.queue_to_sink_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bus.dropped", Unit: "count", Better: "lower"},
	{Name: "history.ingest_ns", Unit: "ns", Better: "lower"},
	{Name: "history.state_mb", Unit: "MB", Better: "lower"},
	{Name: "history.query_us", Unit: "us", Better: "lower"},
	{Name: "history.topk_us", Unit: "us", Better: "lower"},
	{Name: "lake.spill_bin_ns", Unit: "ns", Better: "lower"},
	{Name: "lake.spilled_bins", Unit: "count", Better: "higher"},
	{Name: "lake.bytes_per_bin", Unit: "B", Better: "lower"},
	{Name: "lake.read_series_us", Unit: "us", Better: "lower"},
	{Name: "shard.enqueue_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.applied_frac", Unit: "frac", Better: "higher"},
	{Name: "shard.restarts", Unit: "count", Better: "lower"},
	{Name: "pump.influx_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "pump.promrw_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "pump.otlp_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "capfile.read_us_per_slot", Unit: "us", Better: "lower"},
	{Name: "ran.step_us", Unit: "us", Better: "lower"},
	{Name: "radio.capture_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "bench.generator_late_us_p99", Unit: "us", Better: "lower"},
	{Name: "bench.pass_spread_frac", Unit: "frac", Better: "lower"},
}

// workloadDecls names the workloads and why each exists.
var workloadDecls = []struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}{
	{"dl16", "the paper's typical cell, 16 UEs: position decode and common-search-space PDSCH verification dominate; the per-UE sweep is about a quarter"},
	{"dl128", "same cell, 128 UEs, near one TTI per slot: the per-UE sweep dominates and the position pass, bounded regardless of UE count, is minor"},
	{"ul16", "uplink control only: many short Viterbi blocks through pucch.Decode, none of pdcch or polar; shows a Viterbi change that helps long blocks and costs short ones"},
	{"deliver16", "decode bypassed: dl16's records published at the slot rate into the bus, history+lake, a JSONL file and a TCP client; a decode optimisation must not move it"},
	{"metro", "storage only: a 32-cell, 256-UE record stream through the shard supervisor into spilling history partitions, then RAM, disk and straddling queries"},
}

// checkDeclared fails when the emitted names are not exactly the
// declared ones, or a unit differs.
func checkDeclared(got map[string]metric, want []decl) error {
	declared := make(map[string]bool, len(want))
	for _, d := range want {
		declared[d.Name] = true
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("declared metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s measured in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
	}
	for name := range got {
		if !declared[name] {
			return fmt.Errorf("metric %s measured but not declared", name)
		}
	}
	return nil
}
