package bus

import "nrscope/internal/obs"

// met is the bus-wide instrumentation.
var met = struct {
	published       *obs.Counter
	publishRejected *obs.Counter
	subscribers     *obs.Gauge
}{
	published: obs.Default.Counter("nrscope_bus_published_total",
		"records published into the telemetry bus"),
	publishRejected: obs.Default.Counter("nrscope_bus_publish_rejected_total",
		"publishes rejected because the bus or a subscription was closed, or the record had a non-finite code_rate or t_ms"),
	subscribers: obs.Default.Gauge("nrscope_bus_subscribers",
		"live bus subscriptions"),
}

// sinkMetrics is one named sink's instrument set: the sink="<name>"
// children of the nrscope_bus_sink_* families. Subscriptions sharing a
// name (e.g. every TCP connection under "tcp") share one set: the
// counters aggregate, the depth gauge reports the last sampled queue.
type sinkMetrics struct {
	depth       *obs.Gauge
	capacity    *obs.Gauge
	delivered   *obs.Counter
	dropped     *obs.Counter
	rejected    *obs.Counter
	retried     *obs.Counter
	failures    *obs.Counter
	quarantines *obs.Counter
	flush       *obs.Histogram
}

// metricsFor resolves (or creates) the instrument set for a sink name.
// obs.Default returns the existing child for a repeated label value,
// so repeated calls for one sink name share one set.
func metricsFor(name string) *sinkMetrics {
	l := obs.Default.With("sink", name)
	return &sinkMetrics{
		depth:       l.Gauge("nrscope_bus_sink_queue_depth", "records queued towards the sink (last sampled)"),
		capacity:    l.Gauge("nrscope_bus_sink_queue_capacity", "ring queue capacity of the sink"),
		delivered:   l.Counter("nrscope_bus_sink_delivered_total", "records delivered to the sink"),
		dropped:     l.Counter("nrscope_bus_sink_dropped_total", "records dropped towards the sink (queue eviction, quarantine, failed delivery)"),
		rejected:    l.Counter("nrscope_bus_sink_rejected_total", "records refused by the sink's closing queue"),
		retried:     l.Counter("nrscope_bus_sink_retries_total", "delivery retries towards the sink"),
		failures:    l.Counter("nrscope_bus_sink_delivery_failures_total", "batches whose delivery to the sink failed after retries"),
		quarantines: l.Counter("nrscope_bus_sink_quarantines_total", "times the sink entered failure quarantine"),
		flush:       l.Histogram("nrscope_bus_sink_flush_seconds", "successful batch delivery latency to the sink", obs.LatencyBuckets),
	}
}
