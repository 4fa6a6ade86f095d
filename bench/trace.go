package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. Parent is the index of the enclosing
// span (-1 at the root), so a layer's self time is its duration minus
// that of the spans naming it as parent.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Pass    int    `json:"pass"`
	Slot    int    `json:"slot"`
	// Calls is how many calls into the layer the span covers (probe
	// spans batch the calls a slot makes into one span).
	Calls int `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, pass, slot int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.epoch)), Parent: parent, Pass: pass, Slot: slot})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.endCalls(id, 0) }

func (t *tracer) endCalls(id, calls int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.epoch))
	t.spans[id].Calls = calls
}

// selfTimes sums, per span name, duration minus the part covered by
// child spans.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += float64(s.EndNs - s.StartNs - child[i])
	}
	return out
}

// traceFile is what a traced run leaves in bench/out/trace.json.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	SelfNs    map[string]float64 `json:"self_ns"`
	CostTable []costRow          `json:"cost_table"`
	Metrics   map[string]metric  `json:"metrics"`
	Spans     []span             `json:"spans"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// costRow is one layer's line in the cost table: what one call costs,
// how many a slot makes, and the product.
type costRow struct {
	Layer      string  `json:"layer"`
	UnitNs     float64 `json:"unit_ns"`
	PerSlot    float64 `json:"calls_per_slot"`
	NsPerSlot  float64 `json:"ns_per_slot"`
	ShareOfSum float64 `json:"share_of_sum"`
}
