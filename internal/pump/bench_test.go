package pump

import (
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"nrscope/internal/bus"
	"nrscope/internal/telemetry"
)

// BenchmarkPromRWEncode measures the remote-write encode path. Two arms
// feed the CI alloc gate: arm=baseline memcpys a precomputed frame (the
// 0-alloc floor), arm=encoder runs the real Reset/Append/Frame cycle —
// benchgate -max-alloc-ratio 1.0 against a 0-alloc base pins the
// encoder's steady state to 0 allocs/op.
func BenchmarkPromRWEncode(b *testing.B) {
	recs := testRecords(256)
	for _, arm := range []string{"baseline", "encoder"} {
		b.Run("arm="+arm, func(b *testing.B) {
			enc := &PromRW{BaseMs: 1_723_113_600_000}
			cycle := func() []byte {
				enc.Reset()
				for i := range recs {
					enc.Append(&recs[i])
				}
				return enc.Frame()
			}
			frame := append([]byte(nil), cycle()...) // warm the buffers
			scratch := make([]byte, len(frame))
			bytesPerOp := int64(len(frame))
			b.SetBytes(bytesPerOp)
			b.ReportAllocs()
			b.ResetTimer()
			if arm == "baseline" {
				for i := 0; i < b.N; i++ {
					copy(scratch, frame)
				}
			} else {
				for i := 0; i < b.N; i++ {
					if len(cycle()) == 0 {
						b.Fatal("empty frame")
					}
				}
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)*float64(len(recs))/secs, "records/s")
			}
		})
	}
}

// discardTransport is a hermetic in-process backend: it drains the
// request body and answers 204, so the fanout benchmark measures the
// pump pipeline (bus batching + encode + request assembly) without
// sockets.
type discardTransport struct{}

func (discardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusNoContent,
		Status:     "204 No Content",
		Body:       http.NoBody,
		Header:     http.Header{},
		Request:    req,
	}, nil
}

// BenchmarkPumpFanout measures Publish throughput with 1..4 pumps (one
// per wire format, then a second promrw) subscribed to one bus.
func BenchmarkPumpFanout(b *testing.B) {
	kinds := []string{"promrw", "influx", "otlp", "promrw"}
	for _, pumps := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%dpumps", pumps), func(b *testing.B) {
			bb := bus.New()
			subs := make([]*bus.Subscription, pumps)
			for i := 0; i < pumps; i++ {
				arg := fmt.Sprintf("http://bench.invalid?name=bench_fanout_%d&epoch_ms=0", i)
				if kinds[i] == "influx" {
					arg += "&bucket=bench"
				}
				snk, tun, err := FromSpec(kinds[i], arg)
				if err != nil {
					b.Fatal(err)
				}
				snk.client = &http.Client{Transport: discardTransport{}}
				if subs[i], err = bb.Subscribe(snk.Name(), bus.Block, snk,
					bus.WithQueueSize(tun.Queue),
					bus.WithBatch(tun.Batch, time.Millisecond)); err != nil {
					b.Fatal(err)
				}
			}
			r := telemetry.Record{SlotIdx: 1, RNTI: 0x4601, Downlink: true, TBS: 8192, NumPRB: 24, MCS: 20}
			// Metrics are cached per pump name and accumulate across
			// the framework's repeated runs: account in deltas.
			var sent0, dropped0 int64
			for _, sub := range subs {
				st := sub.Stats()
				sent0 += st.Delivered
				dropped0 += st.Dropped
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.SlotIdx = i
				r.TMs = float64(i) * 0.5
				if err := bb.Publish(r); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := bb.Close(); err != nil {
				b.Fatal(err)
			}
			var sent, dropped int64
			for _, sub := range subs {
				st := sub.Stats()
				sent += st.Delivered
				dropped += st.Dropped
			}
			sent -= sent0
			dropped -= dropped0
			if sent+dropped != int64(b.N)*int64(pumps) {
				b.Fatalf("sent(%d) + dropped(%d) != published %d", sent, dropped, int64(b.N)*int64(pumps))
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "records/s")
				b.ReportMetric(float64(b.N)*float64(pumps)/secs, "deliveries/s")
			}
		})
	}
}
