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
// exposition format (version 0.0.4): one # HELP / # TYPE header per
// family with all its series beneath it, one sample line per
// counter/gauge series, and the cumulative bucket series (le spliced
// into the series' labels) plus _sum/_count for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	bw := bufio.NewWriter(w)
	for _, f := range r.order {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, m := range f.series {
			switch f.kind {
			case "counter":
				fmt.Fprintf(bw, "%s %d\n", seriesName(f.name, m.labels), m.counter.Value())
			case "gauge":
				fmt.Fprintf(bw, "%s %d\n", seriesName(f.name, m.labels), m.gauge.Value())
			case "histogram":
				le := "le="
				if m.labels != "" {
					le = m.labels + ",le="
				}
				bounds, counts := m.hist.Buckets()
				for i, b := range bounds {
					fmt.Fprintf(bw, "%s_bucket{%s%q} %d\n", f.name, le, formatFloat(b), counts[i])
				}
				fmt.Fprintf(bw, "%s_bucket{%s\"+Inf\"} %d\n", f.name, le, m.hist.Count())
				fmt.Fprintf(bw, "%s %s\n", seriesName(f.name+"_sum", m.labels), formatFloat(m.hist.Sum()))
				fmt.Fprintf(bw, "%s %d\n", seriesName(f.name+"_count", m.labels), m.hist.Count())
			}
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
