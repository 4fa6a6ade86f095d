package bus

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"nrscope/internal/telemetry"
)

// TestNoLingerDeliversLoneRecord: a WithBatch(64, 0) subscription
// delivers a single record with no further publish and no Close, while
// a sibling that lingers for an hour has delivered nothing.
func TestNoLingerDeliversLoneRecord(t *testing.T) {
	b := New()
	defer b.Close()
	got := make(chan int, 1)
	if _, err := b.Subscribe("edge_nolinger", Block, SinkFunc(func(recs []telemetry.Record) error {
		got <- len(recs)
		return nil
	}), WithBatch(64, 0)); err != nil {
		t.Fatal(err)
	}
	lingering := &collectSink{}
	if _, err := b.Subscribe("edge_linger", Block, lingering, WithBatch(64, time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(rec(0)); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("first batch holds %d records, want 1", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no-linger subscription never delivered its lone record")
	}
	if n := lingering.calls.Load(); n != 0 {
		t.Fatalf("lingering sibling delivered %d batches before its hour was up", n)
	}
}

// TestNoLingerBatchesGrowWhileSinkBusy: with no linger, the records
// published while the sink is writing form the next batch — exactly
// those records, still capped at maxBatch.
func TestNoLingerBatchesGrowWhileSinkBusy(t *testing.T) {
	for _, tc := range []struct {
		maxBatch int
		want     []int
	}{
		{64, []int{1, 10}},
		{4, []int{1, 4, 4, 2}},
	} {
		t.Run(fmt.Sprintf("maxBatch=%d", tc.maxBatch), func(t *testing.T) {
			b := New()
			sink := &collectSink{gate: make(chan struct{})}
			if _, err := b.Subscribe("edge_growth", Block, sink, WithBatch(tc.maxBatch, 0)); err != nil {
				t.Fatal(err)
			}
			if err := b.Publish(rec(0)); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for sink.calls.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if sink.calls.Load() == 0 {
				t.Fatal("runner never delivered the first record")
			}
			// The runner is inside its first WriteBatch: these queue up.
			for i := 1; i <= 10; i++ {
				if err := b.Publish(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			close(sink.gate)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sink.batchSizes(); !slices.Equal(got, tc.want) {
				t.Fatalf("batch sizes %v, want %v", got, tc.want)
			}
			for i, r := range sink.records() {
				if r.SlotIdx != i {
					t.Fatalf("record %d has slot %d: order broken", i, r.SlotIdx)
				}
			}
		})
	}
}

// TestLiveSubscriberBatchDefaults: a TCP connection and an SSE client
// subscribe without linger, an explicit connection batch rule still
// wins, and a negative maxDelay keeps the 5 ms default.
func TestLiveSubscriberBatchDefaults(t *testing.T) {
	tcpCfg := func(opts ...SubOption) subConfig {
		t.Helper()
		b := New()
		defer b.Close()
		srv := newTCPServer(t, b, 0, opts...)
		defer srv.Close()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		deadline := time.Now().Add(10 * time.Second)
		for srv.Subscribers() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, sub := range srv.conns {
			return sub.cfg
		}
		t.Fatal("TCP subscriber never registered")
		return subConfig{}
	}
	if cfg := tcpCfg(); cfg.maxBatch != 64 || cfg.maxDelay != 0 {
		t.Errorf("TCP connection batches %d / %v, want 64 / 0", cfg.maxBatch, cfg.maxDelay)
	}
	if cfg := tcpCfg(WithBatch(16, time.Millisecond)); cfg.maxBatch != 16 || cfg.maxDelay != time.Millisecond {
		t.Errorf("overridden TCP connection batches %d / %v, want 16 / 1ms", cfg.maxBatch, cfg.maxDelay)
	}

	b := New()
	defer b.Close()
	ts := httptest.NewServer(SSEHandler(b))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for b.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.mu.Lock()
	if len(b.subs) != 1 {
		b.mu.Unlock()
		t.Fatal("SSE subscription never registered")
	}
	sse := b.subs[0].cfg
	b.mu.Unlock()
	if sse.maxBatch != 64 || sse.maxDelay != 0 {
		t.Errorf("SSE client batches %d / %v, want 64 / 0", sse.maxBatch, sse.maxDelay)
	}

	cfg := defaultSubConfig()
	WithBatch(8, -1)(&cfg)
	if cfg.maxBatch != 8 || cfg.maxDelay != 5*time.Millisecond {
		t.Errorf("WithBatch(8, -1) gives %d / %v, want 8 / 5ms", cfg.maxBatch, cfg.maxDelay)
	}
}
