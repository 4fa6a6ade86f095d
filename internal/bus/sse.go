package bus

import (
	"net/http"

	"nrscope/internal/telemetry"
)

// SSEHandler streams the bus as server-sent events: each record is one
// `data: <json>` frame. Mounted on the observability mux (obs.Server,
// cmd/nrscope -metrics) it gives browsers and curl a zero-dependency
// live telemetry feed next to /metrics. Every client is its own
// DropOldest subscription — a stalled browser tab drops its own
// records, never its siblings' — and, like a TCP connection, batches
// without lingering.
func SSEHandler(b *Bus) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "bus: streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		fl.Flush()

		sink := &sseSink{w: w, fl: fl}
		sub, err := b.Subscribe("sse", DropOldest, sink, WithFailFast(), WithBatch(64, 0))
		if err != nil { // bus already closed
			return
		}
		select {
		case <-r.Context().Done():
			sub.Close()
		case <-sub.Done():
		}
	})
}

// sseSink frames one client's batches as SSE events. WriteBatch runs on
// the subscription's runner goroutine; the handler goroutine only waits,
// so the ResponseWriter has a single writer.
type sseSink struct {
	w   http.ResponseWriter
	fl  http.Flusher
	buf []byte
}

// WriteBatch implements Sink, one write per batch encoded into a reused
// buffer.
func (s *sseSink) WriteBatch(recs []telemetry.Record) error {
	buf, err := appendLines(s.buf[:0], recs, "data: ", "\n\n")
	s.buf = buf
	if err != nil {
		return err
	}
	if _, err := s.w.Write(buf); err != nil {
		return err
	}
	s.fl.Flush()
	return nil
}

// Close implements Sink; the response ends when the handler returns.
func (s *sseSink) Close() error { return nil }
