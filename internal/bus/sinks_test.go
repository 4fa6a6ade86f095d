package bus

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nrscope/internal/telemetry"
)

func TestJSONLSinkWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	if err := s.WriteBatch([]telemetry.Record{rec(0), rec(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := telemetry.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].SlotIdx != 0 || back[1].SlotIdx != 1 {
		t.Fatalf("round trip = %+v", back)
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d", s.Count())
	}
	if err := s.WriteBatch([]telemetry.Record{rec(2)}); err == nil {
		t.Error("write after Close succeeded")
	}
}

// TestJSONLFileSinkRotation: crossing maxBytes shelves the current file
// as <path>.N and continues in a fresh <path>, losing nothing.
func TestJSONLFileSinkRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.jsonl")
	s, err := NewJSONLFileSink(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100 // ~230 bytes/record: several rotations
	for i := 0; i < n; i++ {
		if err := s.WriteBatch([]telemetry.Record{rec(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Rotations() < 2 {
		t.Fatalf("Rotations = %d, want >= 2", s.Rotations())
	}
	// Concatenate generations oldest-first plus the live file: every
	// record present, in order.
	var all []telemetry.Record
	for i := 1; i <= s.Rotations(); i++ {
		all = append(all, readJSONL(t, fmt.Sprintf("%s.%d", path, i))...)
	}
	all = append(all, readJSONL(t, path)...)
	if len(all) != n {
		t.Fatalf("records across generations = %d, want %d", len(all), n)
	}
	for i, r := range all {
		if r.SlotIdx != i {
			t.Fatalf("record %d has slot %d", i, r.SlotIdx)
		}
	}
}

func readJSONL(t *testing.T, path string) []telemetry.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := telemetry.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// newTCPServer is NewTCPServer on a loopback port with a write timeout
// (0 keeps the 5 s default) and extra connection subscription options,
// set before any peer connects.
func newTCPServer(t *testing.T, b *Bus, writeTimeout time.Duration, opts ...SubOption) *TCPServer {
	t.Helper()
	srv, err := NewTCPServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if writeTimeout > 0 {
		srv.writeTimeout = writeTimeout
	}
	srv.subOpts = opts
	return srv
}

// TestTCPServerWireCompatible: the bus TCP sink speaks the one-record-
// per-line JSONL protocol telemetry.Dial clients decode.
func TestTCPServerWireCompatible(t *testing.T) {
	b := New()
	defer b.Close()
	srv := newTCPServer(t, b, 0, WithBatch(4, time.Millisecond))
	defer srv.Close()
	c, err := telemetry.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Subscribers() != 1 {
		t.Fatal("subscriber never registered")
	}
	want := rec(42)
	if err := b.Publish(want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.SlotIdx != 42 || got.RNTI != want.RNTI || got.TBS != want.TBS {
		t.Errorf("streamed record mismatch: %+v", got)
	}
}

// TestTCPServerDropsDeadSubscriber: a closed peer is detached by the
// fail-fast policy without disturbing the bus.
func TestTCPServerDropsDeadSubscriber(t *testing.T) {
	b := New()
	defer b.Close()
	srv := newTCPServer(t, b, 200*time.Millisecond, WithBatch(1, time.Millisecond))
	defer srv.Close()
	c, err := telemetry.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	_ = c.Close()
	for i := 0; i < 2000 && srv.Subscribers() > 0; i++ {
		if err := b.Publish(rec(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if srv.Subscribers() != 0 {
		t.Error("dead subscriber never dropped")
	}
	// The bus keeps serving new subscribers afterwards.
	c2, err := telemetry.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for srv.Subscribers() == 0 && time.Now().Before(deadline.Add(2*time.Second)) {
		time.Sleep(time.Millisecond)
	}
	if err := b.Publish(rec(7)); err != nil {
		t.Fatal(err)
	}
	if got, err := c2.Next(); err != nil || got.SlotIdx != 7 {
		t.Fatalf("post-drop subscriber: rec=%+v err=%v", got, err)
	}
}

// TestSSEHandlerStreams: records published into the bus arrive as
// `data: <json>` frames on an SSE client.
func TestSSEHandlerStreams(t *testing.T) {
	b := New()
	defer b.Close()
	ts := httptest.NewServer(SSEHandler(b))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.Subscribers() != 1 {
		t.Fatal("SSE subscription never registered")
	}
	if err := b.Publish(rec(99)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "data: ") {
		t.Fatalf("frame %q lacks data: prefix", line)
	}
	var got telemetry.Record
	recs, err := telemetry.ReadAll(strings.NewReader(strings.TrimPrefix(line, "data: ")))
	if err != nil || len(recs) != 1 {
		t.Fatalf("frame payload unreadable: %v %v", recs, err)
	}
	got = recs[0]
	if got.SlotIdx != 99 {
		t.Errorf("SSE record slot = %d, want 99", got.SlotIdx)
	}
}

// TestSSEHandlerClientDisconnect: closing the client detaches its
// subscription instead of leaking it.
func TestSSEHandlerClientDisconnect(t *testing.T) {
	b := New()
	defer b.Close()
	ts := httptest.NewServer(SSEHandler(b))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 0))
	resp.Body.Close()
	for i := 0; i < 2000 && b.Subscribers() > 0; i++ {
		if err := b.Publish(rec(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if b.Subscribers() != 0 {
		t.Error("SSE subscription leaked after client disconnect")
	}
}

// TestJSONLRotateExactBoundary: a batch whose bytes land exactly on the
// rotation limit rotates once — no double rotation, no lost records —
// and the next batch starts the fresh file.
func TestJSONLRotateExactBoundary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "telemetry.jsonl")
	// Identical records encode to identical line lengths, so n of them
	// land exactly on n*line bytes.
	r := rec(7)
	var probe bytes.Buffer
	ps := NewJSONLSink(&probe)
	if err := ps.WriteBatch([]telemetry.Record{r}); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	line := int64(probe.Len())
	const n = 8
	sink, err := NewJSONLFileSink(path, n*line)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]telemetry.Record, n)
	for i := range batch {
		batch[i] = r
	}
	if err := sink.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := sink.Rotations(); got != 1 {
		t.Fatalf("Rotations = %d after an exact-boundary batch, want 1", got)
	}
	// The next batch lands in the fresh file, and nothing was lost.
	if err := sink.WriteBatch([]telemetry.Record{rec(9)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.Count(); got != n+1 {
		t.Fatalf("Count = %d, want %d", got, n+1)
	}
	readAll := func(p string) []telemetry.Record {
		t.Helper()
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		recs, err := telemetry.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	shelved := readAll(path + ".1")
	if len(shelved) != n {
		t.Fatalf("rotated generation holds %d records, want %d", len(shelved), n)
	}
	for i, got := range shelved {
		if got.SlotIdx != r.SlotIdx || got.TBS != r.TBS {
			t.Fatalf("rotated record %d = %+v, want %+v", i, got, r)
		}
	}
	fresh := readAll(path)
	if len(fresh) != 1 || fresh[0].SlotIdx != 9 {
		t.Fatalf("fresh generation = %+v, want the single post-rotation record", fresh)
	}
	if _, err := os.Stat(path + ".2"); !os.IsNotExist(err) {
		t.Fatalf("unexpected second rotation generation (err=%v)", err)
	}
}
