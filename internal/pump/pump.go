package pump

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"nrscope/internal/telemetry"
)

// Config shapes one pump sink.
type Config struct {
	// Name keys the pump's nrscope_pump_<name>_* instruments (default:
	// the encoder's Kind). Same-named pumps share instruments.
	Name string
	// URL is the POST target.
	URL string
	// Encoder is the wire format. Required; owned by this sink.
	Encoder Encoder
	// Header holds extra request headers (auth, remote-write version).
	Header http.Header
	// Timeout bounds each HTTP request (default 10 s).
	Timeout time.Duration
	// MaxFrameBytes splits a batch into multiple frames once the
	// pending body reaches this size (default 4 MiB).
	MaxFrameBytes int
}

// Sink is a batching HTTP exporter implementing the bus Sink contract:
// WriteBatch encodes the batch through the Encoder and POSTs one or
// more frames; any HTTP failure is returned to the bus runner, whose
// retry/backoff/quarantine machinery owns the recovery policy.
//
// Accounting: the pump's records are the bus subscription's —
// nrscope_bus_<name>_delivered_total counts a record once its whole
// WriteBatch succeeded, and _dropped_total every record lost towards
// the pump, so delivered + dropped equals the records published to the
// subscription once the bus has drained. A mid-batch frame failure makes
// the runner retry the batch, re-sending earlier frames; the pump's
// frames/bytes counters count that wire activity.
type Sink struct {
	name     string
	url      string
	enc      Encoder
	header   http.Header
	client   *http.Client
	maxFrame int
	met      *pumpMetrics
}

// New builds a pump sink. The encoder must not be shared with another
// sink: WriteBatch reuses its buffers from the bus runner goroutine.
func New(cfg Config) (*Sink, error) {
	if cfg.Encoder == nil {
		return nil, fmt.Errorf("pump: config needs an Encoder")
	}
	if cfg.URL == "" {
		return nil, fmt.Errorf("pump: config needs a URL")
	}
	name := cfg.Name
	if name == "" {
		name = cfg.Encoder.Kind()
	}
	s := &Sink{
		name:     name,
		url:      cfg.URL,
		enc:      cfg.Encoder,
		header:   cfg.Header,
		maxFrame: cfg.MaxFrameBytes,
		met:      metricsFor(name),
	}
	if s.maxFrame <= 0 {
		s.maxFrame = 4 << 20
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	s.client = &http.Client{Timeout: timeout}
	return s, nil
}

// Name returns the pump's metric key.
func (s *Sink) Name() string { return s.name }

// URL returns the POST target.
func (s *Sink) URL() string { return s.url }

// WriteBatch implements the bus Sink contract: encode, split at
// MaxFrameBytes, POST. Called from the subscription's runner goroutine
// only.
func (s *Sink) WriteBatch(recs []telemetry.Record) error {
	enc := s.enc
	enc.Reset()
	for i := range recs {
		enc.Append(&recs[i])
		if enc.Len() >= s.maxFrame {
			if err := s.send(enc); err != nil {
				return err
			}
			enc.Reset()
		}
	}
	if enc.Records() > 0 {
		return s.send(enc)
	}
	return nil
}

// send POSTs one frame and classifies the outcome.
func (s *Sink) send(enc Encoder) error {
	body := enc.Frame()
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("pump %s: %w", s.name, err)
	}
	req.Header.Set("Content-Type", enc.ContentType())
	if ce := enc.ContentEncoding(); ce != "" {
		req.Header.Set("Content-Encoding", ce)
	}
	req.Header.Set("User-Agent", "nrscope-pump/"+enc.Kind())
	for k, vs := range s.header {
		req.Header[k] = vs
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		s.met.netErrors.Inc()
		return fmt.Errorf("pump %s: %w", s.name, err)
	}
	// Drain a bounded slice of the response so the connection is
	// reusable, whatever the backend chats back.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode >= 400 {
		if resp.StatusCode >= 500 {
			s.met.err5xx.Inc()
		} else {
			s.met.err4xx.Inc()
		}
		return fmt.Errorf("pump %s: %s responded %s", s.name, s.url, resp.Status)
	}
	s.met.frames.Inc()
	s.met.bytes.Add(int64(len(body)))
	s.met.send.Observe(time.Since(start).Seconds())
	return nil
}

// Close implements the bus Sink contract.
func (s *Sink) Close() error {
	s.client.CloseIdleConnections()
	return nil
}
