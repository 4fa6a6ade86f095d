package bus

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nrscope/internal/obs"
	"nrscope/internal/telemetry"
)

// TestSSEHandlerBatchedEvents: a published burst reaches the client as
// one data: frame per record (batches are framed record-wise).
func TestSSEHandlerBatchedEvents(t *testing.T) {
	b := New()
	defer b.Close()
	ts := httptest.NewServer(SSEHandler(b))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	deadline := time.Now().Add(2 * time.Second)
	for b.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := b.Publish(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < n; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("frame %d = %q, want data: prefix", i, line)
		}
		recs, err := telemetry.ReadAll(strings.NewReader(strings.TrimPrefix(line, "data: ")))
		if err != nil || len(recs) != 1 {
			t.Fatalf("frame %d payload: %v %v", i, recs, err)
		}
		if recs[0].SlotIdx != i {
			t.Fatalf("frame %d carries slot %d: records reordered or dropped", i, recs[0].SlotIdx)
		}
		if blank, err := br.ReadString('\n'); err != nil || blank != "\n" {
			t.Fatalf("frame %d not blank-line terminated: %q %v", i, blank, err)
		}
	}
}

// gatedWriter is a Flusher whose Write blocks until released — a stand-
// in for a stalled SSE client with full socket buffers.
type gatedWriter struct {
	gate    chan struct{}
	blocked chan struct{}
	once    sync.Once
	header  http.Header
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{gate: make(chan struct{}), blocked: make(chan struct{}), header: make(http.Header)}
}

func (g *gatedWriter) Header() http.Header { return g.header }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Flush()              {}
func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.blocked) })
	<-g.gate
	return len(p), nil
}

// TestSSEHandlerSlowReaderDrops: a stalled client's DropOldest queue
// evicts its own records, and the evictions land in the sse sink's
// drop counter — the accounting that distinguishes "slow tab" from
// "lossy bus".
func TestSSEHandlerSlowReaderDrops(t *testing.T) {
	b := New()
	defer b.Close()
	before := obs.Snapshot()

	gw := newGatedWriter()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/events", nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		SSEHandler(b).ServeHTTP(gw, req)
	}()

	deadline := time.Now().Add(2 * time.Second)
	for b.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.Subscribers() != 1 {
		t.Fatal("subscription never registered")
	}
	// First record reaches the sink and blocks in Write.
	if err := b.Publish(rec(0)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gw.blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("sink never attempted a write")
	}
	// Overrun the stalled subscriber's queue (default capacity 1024):
	// DropOldest must evict synchronously, never stall Publish.
	const burst = 2500
	for i := 1; i <= burst; i++ {
		if err := b.Publish(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	d := obs.Delta(before, obs.Snapshot())
	if drops := d[`nrscope_bus_sink_dropped_total{sink="sse"}`]; drops < burst-1100 {
		t.Errorf("sse drops = %v, want >= %d after a %d-record overrun", drops, burst-1100, burst)
	}
	// Release the client and disconnect: the handler must come home.
	close(gw.gate)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler leaked after disconnect")
	}
	if b.Subscribers() != 0 {
		t.Error("subscription leaked after disconnect")
	}
}

// TestSSEHandlerClosedBus: connecting after Close ends the response
// immediately instead of hanging the client.
func TestSSEHandlerClosedBus(t *testing.T) {
	b := New()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(SSEHandler(b))
	defer ts.Close()
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err == nil {
		t.Errorf("closed bus produced frame %q, want immediate EOF", line)
	}
}
