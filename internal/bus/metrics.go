package bus

import (
	"sync"

	"nrscope/internal/obs"
)

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

// sinkMetrics is one named sink's instrument set. Subscriptions sharing
// a name (e.g. every TCP connection under "tcp") share one set: the
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

var (
	sinkMetricsMu    sync.Mutex
	sinkMetricsCache = map[string]*sinkMetrics{}
)

// metricsFor resolves (or creates) the instrument set for a sink name.
func metricsFor(name string) *sinkMetrics {
	key := obs.MetricName(name, "sink")
	sinkMetricsMu.Lock()
	defer sinkMetricsMu.Unlock()
	if m, ok := sinkMetricsCache[key]; ok {
		return m
	}
	p := "nrscope_bus_" + key + "_"
	m := &sinkMetrics{
		depth:       obs.Default.Gauge(p+"queue_depth", "records queued towards the "+name+" sink (last sampled)"),
		capacity:    obs.Default.Gauge(p+"queue_capacity", "ring queue capacity of the "+name+" sink"),
		delivered:   obs.Default.Counter(p+"delivered_total", "records delivered to the "+name+" sink"),
		dropped:     obs.Default.Counter(p+"dropped_total", "records dropped towards the "+name+" sink (queue eviction, quarantine, failed delivery)"),
		rejected:    obs.Default.Counter(p+"rejected_total", "records refused by the "+name+" sink's closing queue"),
		retried:     obs.Default.Counter(p+"retries_total", "delivery retries towards the "+name+" sink"),
		failures:    obs.Default.Counter(p+"delivery_failures_total", "batches whose delivery to the "+name+" sink failed after retries"),
		quarantines: obs.Default.Counter(p+"quarantines_total", "times the "+name+" sink entered failure quarantine"),
		flush:       obs.Default.Histogram(p+"flush_seconds", "successful batch delivery latency to the "+name+" sink", obs.LatencyBuckets),
	}
	sinkMetricsCache[key] = m
	return m
}
