package bus

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"nrscope/internal/telemetry"
)

// TestUnencodableRecordRefused: a record JSON cannot encode (a NaN
// code_rate, an infinite t_ms) is refused at Publish and counted as a
// rejected publish. It never reaches a sink, so it can neither fail the
// JSONL batch it shares with good records — whose retries would write
// those records again — nor disconnect a live TCP client.
func TestUnencodableRecordRefused(t *testing.T) {
	var file bytes.Buffer
	jsonl := NewJSONLSink(&file)
	b := New()
	sub, err := b.Subscribe("poison", Block, jsonl, withRetry(3, time.Millisecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewTCPServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := telemetry.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for deadline := time.Now().Add(2 * time.Second); srv.Subscribers() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("TCP subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	rejected := met.publishRejected.Value()
	good := rec(1)
	if err := b.Publish(good); err != nil {
		t.Fatal(err)
	}
	nan, inf := rec(2), rec(3)
	nan.R, inf.TMs = math.NaN(), math.Inf(1)
	for _, bad := range []telemetry.Record{nan, inf} {
		if err := b.Publish(bad); !errors.Is(err, ErrUnencodable) {
			t.Errorf("Publish(code_rate %v, t_ms %v) = %v, want ErrUnencodable", bad.R, bad.TMs, err)
		}
	}
	after := rec(4)
	if err := b.Publish(after); err != nil {
		t.Fatal(err)
	}
	if got := met.publishRejected.Value() - rejected; got != 2 {
		t.Errorf("publish-rejected counter rose by %d, want 2", got)
	}

	// The TCP client stays connected and receives the good records.
	for _, want := range []telemetry.Record{good, after} {
		got, err := client.Next()
		if err != nil {
			t.Fatalf("TCP client lost its stream: %v", err)
		}
		if got != want {
			t.Fatalf("TCP client read %+v, want %+v", got, want)
		}
	}
	if n := srv.Subscribers(); n != 1 {
		t.Errorf("TCP subscribers = %d, want 1", n)
	}

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range []telemetry.Record{good, after} {
		line, _ := json.Marshal(r)
		want.Write(line)
		want.WriteByte('\n')
	}
	if file.String() != want.String() {
		t.Errorf("JSONL file holds\n%s\nwant each good record once:\n%s", file.String(), want.String())
	}
	if n := jsonl.Count(); n != 2 {
		t.Errorf("JSONL Count = %d, want 2", n)
	}
	if st := sub.Stats(); st.Dropped != 0 || st.Failures != 0 {
		t.Errorf("JSONL subscription dropped %d records in %d failed batches, want none", st.Dropped, st.Failures)
	}
}

// TestJSONLSinkFailedBatchWritesNothing: a batch with a record that
// does not encode fails whole, before any of it is written, however
// often it is retried; the sink then goes on writing good batches.
func TestJSONLSinkFailedBatchWritesNothing(t *testing.T) {
	var file bytes.Buffer
	s := NewJSONLSink(&file)
	bad := rec(2)
	bad.R = math.NaN()
	for try := 0; try < 4; try++ {
		if err := s.WriteBatch([]telemetry.Record{rec(1), bad}); err == nil {
			t.Fatal("WriteBatch with a NaN code_rate succeeded")
		}
	}
	if file.Len() != 0 || s.Count() != 0 {
		t.Fatalf("failed batches wrote %q (Count %d), want nothing", file.String(), s.Count())
	}
	if err := s.WriteBatch([]telemetry.Record{rec(1)}); err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(rec(1))
	if want := string(line) + "\n"; file.String() != want || s.Count() != 1 {
		t.Fatalf("after a good batch the file holds %q (Count %d), want %q", file.String(), s.Count(), want)
	}
}

// TestSinkNameIsALabelValue: a sink's name reaches its instruments as a
// label value, so no name can alias a bus-wide counter or another
// sink's. A sink named "publish" once took nrscope_bus_publish_rejected_total
// as its rejected counter, and "a-b", "a.b" and "A_B" shared one set.
func TestSinkNameIsALabelValue(t *testing.T) {
	b := New()
	defer b.Close()
	names := []string{"publish", "a-b", "a.b", "A_B"}
	subs := make([]*Subscription, len(names))
	for i, name := range names {
		sub, err := b.Subscribe(name, Block, &collectSink{})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	bad := rec(0)
	bad.R = math.NaN()
	if err := b.Publish(bad); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("Publish(NaN code_rate) = %v, want ErrUnencodable", err)
	}
	if got := subs[0].Stats().Rejected; got != 0 {
		t.Errorf(`sink "publish" reports Rejected = %d for a record it never saw, want 0`, got)
	}
	// One record pushed to "a.b" alone: its look-alikes deliver nothing.
	subs[2].push(rec(1))
	deadline := time.Now().Add(5 * time.Second)
	for subs[2].Stats().Delivered == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i, sub := range subs {
		want := int64(0)
		if i == 2 {
			want = 1
		}
		if got := sub.Stats().Delivered; got != want {
			t.Errorf("sink %q delivered %d, want %d", names[i], got, want)
		}
	}
}
