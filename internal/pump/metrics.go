package pump

import "nrscope/internal/obs"

// sendBuckets is the latency layout for pump HTTP deliveries: 1 ms to
// 2.5 s, roughly exponential — a TSDB hop is orders of magnitude above
// the bus's in-process flush latencies.
var sendBuckets = []float64{
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
	250e-3, 500e-3, 1, 2.5,
}

// pumpMetrics is one named pump's instrument set: the pump="<name>"
// children of the nrscope_pump_* families. Same-named pumps share a
// set, mirroring the bus's per-sink convention.
type pumpMetrics struct {
	frames    *obs.Counter
	bytes     *obs.Counter
	err4xx    *obs.Counter
	err5xx    *obs.Counter
	netErrors *obs.Counter
	send      *obs.Histogram
}

// metricsFor resolves (or creates) the instrument set for a pump name.
// obs.Default returns the existing child for a repeated label value,
// so repeated calls for one pump name share one set.
func metricsFor(name string) *pumpMetrics {
	l := obs.Default.With("pump", name)
	return &pumpMetrics{
		frames:    l.Counter("nrscope_pump_frames_sent_total", "HTTP frames delivered by the pump (includes batch retries)"),
		bytes:     l.Counter("nrscope_pump_sent_bytes_total", "encoded body bytes delivered by the pump"),
		err4xx:    l.Counter("nrscope_pump_http_4xx_total", "4xx responses from the pump's backend"),
		err5xx:    l.Counter("nrscope_pump_http_5xx_total", "5xx responses from the pump's backend"),
		netErrors: l.Counter("nrscope_pump_net_errors_total", "transport errors (dial, timeout, reset) towards the pump's backend"),
		send:      l.Histogram("nrscope_pump_send_seconds", "successful frame delivery latency of the pump", sendBuckets),
	}
}
