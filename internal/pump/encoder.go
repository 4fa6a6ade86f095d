// Package pump is the bus's egress layer: batching HTTP exporters
// ("pumps") that turn telemetry.Records into the wire formats real
// metrics backends ingest — Prometheus remote-write protobuf
// (snappy-framed), Influx line protocol, and OTLP/HTTP JSON — so a
// live capture (or an offline -replay backfill) lands in an external
// TSDB for longitudinal analysis, the deployment posture the paper's
// always-on telemetry service assumes.
//
// The subsystem has two parts. pump.Sink is the SDK: it implements the
// bus Sink contract (WriteBatch/Close) and therefore rides the bus
// runner's batching, retry/backoff and failure-quarantine machinery,
// while owning everything HTTP — request framing (content type and
// encoding, auth header, timeout), max-frame splitting, and the
// nrscope_pump_*{pump="<name>"} instruments. The Encoder seam below is
// the per-format half: append-only encoding into reusable buffers, so
// steady-state export allocates nothing and never pressures the decode
// hot path's allocator.
package pump

import "nrscope/internal/telemetry"

// Encoder turns appended records into one HTTP request body ("frame")
// of a concrete wire format. Implementations keep their buffers across
// Reset so steady-state Append/Frame is allocation-free. An Encoder is
// owned by exactly one Sink and is only touched from that sink's bus
// runner goroutine — no locking. The encoder types are exported so that
// bench/ can time each wire format alone.
type Encoder interface {
	// Kind is the format's -sink spec keyword ("promrw", "influx",
	// "otlp"); it doubles as the default pump label value.
	Kind() string
	// ContentType is the frame's Content-Type header value.
	ContentType() string
	// ContentEncoding is the frame's Content-Encoding header value
	// ("" means none is sent).
	ContentEncoding() string
	// Reset discards pending records, keeping buffers for reuse.
	Reset()
	// Append encodes one record into the pending frame.
	Append(rec *telemetry.Record)
	// Records reports how many records are pending since Reset.
	Records() int
	// Len reports the pending body size in bytes. For promrw it is the
	// pre-snappy size — an upper bound, since all-literal snappy adds
	// under 1% framing overhead and never doubles it.
	Len() int
	// Frame finalizes and returns the request body for the pending
	// records. The slice is owned by the encoder and valid until the
	// next Append or Reset.
	Frame() []byte
}

// fieldDefs is the per-record export schema every pump shares: one
// sample per field per record, labelled/tagged with the record's C-RNTI
// and link direction, timestamped from its capture-relative TMs plus
// the encoder's wall-clock base.
var fieldDefs = [...]struct {
	prom   string // Prometheus metric name (the __name__ label)
	influx string // Influx field key
	otlp   string // OTLP metric name
	get    func(*telemetry.Record) float64
}{
	{"nrscope_dci_tbs_bits", "tbs_bits", "nrscope.dci.tbs_bits",
		func(r *telemetry.Record) float64 { return float64(r.TBS) }},
	{"nrscope_dci_prbs", "prbs", "nrscope.dci.prbs",
		func(r *telemetry.Record) float64 { return float64(r.NumPRB) }},
	{"nrscope_dci_mcs", "mcs", "nrscope.dci.mcs",
		func(r *telemetry.Record) float64 { return float64(r.MCS) }},
	{"nrscope_dci_retx", "retx", "nrscope.dci.retx",
		func(r *telemetry.Record) float64 {
			if r.IsRetx {
				return 1
			}
			return 0
		}},
}

// recordMs places a record on the wall clock: the pump's base epoch
// (Unix ms, fixed at sink construction or via ?epoch_ms=) plus the
// record's capture-relative slot time.
func recordMs(base int64, r *telemetry.Record) int64 {
	return base + int64(r.TMs)
}

// dirString is the record's link direction label value.
func dirString(r *telemetry.Record) string {
	if r.Downlink {
		return "dl"
	}
	return "ul"
}

const hexDigits = "0123456789abcdef"

// appendRNTI renders a C-RNTI as the fixed-width "0x4601" form shared
// by the repo's logs and HTTP APIs, without allocating.
func appendRNTI(dst []byte, rnti uint16) []byte {
	return append(dst, '0', 'x',
		hexDigits[rnti>>12&0xF], hexDigits[rnti>>8&0xF],
		hexDigits[rnti>>4&0xF], hexDigits[rnti&0xF])
}

// appendUvarint appends v in base-128 varint form (protobuf and snappy
// both use it).
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}
