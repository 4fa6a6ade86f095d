package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, one
// sample line per counter/gauge, and the cumulative bucket series plus
// _sum/_count for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	bw := bufio.NewWriter(w)
	for _, name := range r.order {
		m := r.metrics[name]
		if m.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, m.help)
		}
		switch m.kind {
		case "counter":
			fmt.Fprintf(bw, "# TYPE %s counter\n", name)
			fmt.Fprintf(bw, "%s %d\n", name, m.counter.Value())
		case "gauge":
			fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
			fmt.Fprintf(bw, "%s %d\n", name, m.gauge.Value())
		case "histogram":
			fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
			bounds, counts := m.hist.Buckets()
			for i, le := range bounds {
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, formatFloat(le), counts[i])
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, m.hist.Count())
			fmt.Fprintf(bw, "%s_sum %s\n", name, formatFloat(m.hist.Sum()))
			fmt.Fprintf(bw, "%s_count %d\n", name, m.hist.Count())
		}
	}
	return bw.Flush()
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips, NaN/Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry as /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
