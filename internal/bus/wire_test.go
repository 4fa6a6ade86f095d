package bus

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nrscope/internal/phy"
	"nrscope/internal/raceflag"
	"nrscope/internal/telemetry"
)

// wireRecs spans what the wire encoding must reproduce: the omitempty
// new_ue/common flags set and unset, non-integer code_rate and t_ms
// (exponent forms included), a string json escapes, and a Ref that does
// not serialise.
func wireRecs() []telemetry.Record {
	recs := make([]telemetry.Record, 8)
	for i := range recs {
		r := rec(i)
		r.SFN, r.Slot, r.Format = 100+i, i, "1_1"
		r.MCS, r.Qm, r.R = 20+i, 6, 0.4385+float64(i)/7
		r.NewUE, r.Common = i%2 == 0, i%3 == 0
		r.TMs = 0.5*float64(i) + 0.125
		r.Ref = phy.SlotRef{SFN: 100 + i, Slot: i}
		recs[i] = r
	}
	recs[5].R, recs[5].TMs = 1e-7, 1e21
	recs[7].Format = "<&> "
	return recs
}

// captureConn is the net.Conn side of a connSink that records what it
// writes; the embedded nil Conn stands in for methods connSink never
// calls.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *captureConn) SetWriteDeadline(time.Time) error { return nil }

// connSinkBytes returns the bytes one connSink.WriteBatch(recs) puts on
// the wire.
func connSinkBytes(tb testing.TB, recs []telemetry.Record) []byte {
	tb.Helper()
	conn := &captureConn{}
	if err := (&connSink{conn: conn}).WriteBatch(recs); err != nil {
		tb.Fatal(err)
	}
	return conn.buf.Bytes()
}

// TestConnSinkWireBytes: the TCP wire is json.Marshal(rec)+"\n" per
// record, byte for byte, and a reused buffer carries nothing over from
// the previous batch.
func TestConnSinkWireBytes(t *testing.T) {
	recs := wireRecs()
	var want bytes.Buffer
	for _, batch := range [][]telemetry.Record{recs, recs[:3]} {
		for _, r := range batch {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			want.Write(line)
			want.WriteByte('\n')
		}
	}
	conn := &captureConn{}
	sink := &connSink{conn: conn, timeout: time.Second}
	for _, batch := range [][]telemetry.Record{recs, recs[:3]} {
		if err := sink.WriteBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(conn.buf.Bytes(), want.Bytes()) {
		t.Fatalf("TCP wire bytes differ from json.Marshal lines:\n got %q\nwant %q", conn.buf.Bytes(), want.Bytes())
	}
}

// TestSSESinkWireBytes: an SSE batch is "data: " + json.Marshal(rec) +
// "\n\n" per record, byte for byte, across reused-buffer batches.
func TestSSESinkWireBytes(t *testing.T) {
	recs := wireRecs()
	var want bytes.Buffer
	for _, batch := range [][]telemetry.Record{recs, recs[:3]} {
		for _, r := range batch {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			want.WriteString("data: ")
			want.Write(line)
			want.WriteString("\n\n")
		}
	}
	w := httptest.NewRecorder()
	sink := &sseSink{w: w, fl: w}
	for _, batch := range [][]telemetry.Record{recs, recs[:3]} {
		if err := sink.WriteBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
		t.Fatalf("SSE wire bytes differ from data: frames:\n got %q\nwant %q", w.Body.Bytes(), want.Bytes())
	}
}

// TestConnSinkWriteBatchAllocFree: once warm, encoding and writing a
// batch allocates nothing.
func TestConnSinkWriteBatchAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc assertions are meaningless")
	}
	conn := &captureConn{}
	sink := &connSink{conn: conn, timeout: time.Second}
	recs := wireRecs()
	write := func() {
		conn.buf.Reset()
		if err := sink.WriteBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	write() // warm the buffers
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("%v allocs per %d-record batch, want 0", allocs, len(recs))
	}
}

// TestJSONLSinkWriteBatchAllocFree: once warm, encoding and writing a
// JSONL batch allocates nothing.
func TestJSONLSinkWriteBatchAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc assertions are meaningless")
	}
	var out bytes.Buffer
	sink := NewJSONLSink(&out)
	recs := wireRecs()
	write := func() {
		out.Reset()
		if err := sink.WriteBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	write() // warm the buffers
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("%v allocs per %d-record batch, want 0", allocs, len(recs))
	}
}

// flushRecorder is an http.ResponseWriter and Flusher that keeps the
// last write; the embedded nil ResponseWriter stands in for methods
// sseSink never calls.
type flushRecorder struct {
	http.ResponseWriter
	buf     bytes.Buffer
	flushes int
}

func (f *flushRecorder) Write(p []byte) (int, error) { return f.buf.Write(p) }
func (f *flushRecorder) Flush()                      { f.flushes++ }

// TestSSESinkWriteBatchAllocFree: once warm, framing and writing an SSE
// batch allocates nothing.
func TestSSESinkWriteBatchAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc assertions are meaningless")
	}
	w := &flushRecorder{}
	sink := &sseSink{w: w, fl: w}
	recs := wireRecs()
	write := func() {
		w.buf.Reset()
		if err := sink.WriteBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	write() // warm the buffers
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("%v allocs per %d-record batch, want 0", allocs, len(recs))
	}
}

// addWireSeeds seeds a wire-reader fuzz target from connSink output: a
// multi-record batch, a truncated line, an empty stream, and a line
// with a field Record does not have.
func addWireSeeds(f *testing.F) {
	wire := connSinkBytes(f, wireRecs())
	first := wire[:bytes.IndexByte(wire, '\n')+1]
	f.Add(wire)
	f.Add(wire[:len(first)+len(first)/2])
	f.Add([]byte{})
	f.Add(append([]byte(`{"unknown":[1,{"x":null}],`), first[1:]...))
}

// requireRoundTrip encodes recs with connSink, lets decode read the
// bytes back, and fails unless every record returns intact apart from
// Ref, which does not serialise.
func requireRoundTrip(t *testing.T, recs []telemetry.Record, decode func([]byte) ([]telemetry.Record, error)) {
	t.Helper()
	for i := range recs {
		recs[i].Ref = phy.SlotRef{SFN: i, Slot: 1}
	}
	got, err := decode(connSinkBytes(t, recs))
	if err != nil {
		t.Fatalf("decoding connSink output: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records from a %d-record batch", len(got), len(recs))
	}
	for i, want := range recs {
		want.Ref = phy.SlotRef{}
		if got[i] != want {
			t.Fatalf("record %d decoded as %+v, want %+v", i, got[i], want)
		}
	}
}

// FuzzReadAll: telemetry.ReadAll never panics on bytes the process did
// not write, and whatever it decodes survives a connSink round trip.
func FuzzReadAll(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := telemetry.ReadAll(bytes.NewReader(data))
		requireRoundTrip(t, recs, func(wire []byte) ([]telemetry.Record, error) {
			return telemetry.ReadAll(bytes.NewReader(wire))
		})
	})
}

// FuzzClientNext: telemetry.Client.Next never panics on a stream the
// process did not write, and whatever it decodes survives a connSink
// round trip. Each stream travels over its own loopback connection.
func FuzzClientNext(f *testing.F) {
	addWireSeeds(f)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })
	// stream serves data to a fresh Client and returns what Next decoded
	// before its first error, which is io.EOF for a clean stream.
	stream := func(t *testing.T, data []byte) ([]telemetry.Record, error) {
		t.Helper()
		c, err := telemetry.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn, err := ln.Accept()
		if err != nil {
			c.Close()
			t.Fatal(err)
		}
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			defer conn.Close()
			conn.Write(data) // fails once the client gives up: no matter
		}()
		defer func() {
			c.Close() // a write the client stopped reading fails and returns
			<-wrote
		}()
		var recs []telemetry.Record
		for {
			r, err := c.Next()
			if err != nil {
				return recs, err
			}
			recs = append(recs, r)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := stream(t, data)
		requireRoundTrip(t, recs, func(wire []byte) ([]telemetry.Record, error) {
			got, err := stream(t, wire)
			if err == io.EOF {
				err = nil
			}
			return got, err
		})
	})
}
