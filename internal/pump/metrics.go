package pump

import "nrscope/internal/obs"

// sendBuckets is the latency layout for pump HTTP deliveries: 1 ms to
// 2.5 s, roughly exponential — a TSDB hop is orders of magnitude above
// the bus's in-process flush latencies.
var sendBuckets = []float64{
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
	250e-3, 500e-3, 1, 2.5,
}

// pumpMetrics is one named pump's instrument set. Same-named pumps
// share a set, mirroring the bus's per-sink convention.
type pumpMetrics struct {
	frames    *obs.Counter
	bytes     *obs.Counter
	err4xx    *obs.Counter
	err5xx    *obs.Counter
	netErrors *obs.Counter
	send      *obs.Histogram
}

// metricsFor resolves (or creates) the instrument set for a pump name.
// obs.Default returns the existing instrument for a name registered
// twice, so repeated calls for one pump name share one set.
func metricsFor(name string) *pumpMetrics {
	key := obs.MetricName(name, "pump")
	p := "nrscope_pump_" + key + "_"
	return &pumpMetrics{
		frames:    obs.Default.Counter(p+"frames_sent_total", "HTTP frames delivered by the "+name+" pump (includes batch retries)"),
		bytes:     obs.Default.Counter(p+"sent_bytes_total", "encoded body bytes delivered by the "+name+" pump"),
		err4xx:    obs.Default.Counter(p+"http_4xx_total", "4xx responses from the "+name+" pump's backend"),
		err5xx:    obs.Default.Counter(p+"http_5xx_total", "5xx responses from the "+name+" pump's backend"),
		netErrors: obs.Default.Counter(p+"net_errors_total", "transport errors (dial, timeout, reset) towards the "+name+" pump's backend"),
		send:      obs.Default.Histogram(p+"send_seconds", "successful frame delivery latency of the "+name+" pump", sendBuckets),
	}
}
