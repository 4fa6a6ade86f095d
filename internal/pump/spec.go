package pump

import (
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"
)

// AuthEnv is the fallback auth hook: when a spec carries neither
// ?token= nor ?token_env=, and this environment variable is set, its
// value is sent verbatim as the Authorization header of every frame
// (e.g. "Bearer xyz" or "Basic ...").
const AuthEnv = "NRSCOPE_PUMP_AUTH"

// Caps on the sizes a -sink spec may ask for: a ring queue allocates
// its whole capacity up front, and frame_kb is shifted into bytes.
const (
	maxQueue   = 1 << 20 // records
	maxFrameKB = 1 << 20 // KiB (1 GiB frames)
)

// Tuning is the bus-subscription shape a -sink spec asked for; the
// caller applies it via bus.Subscribe options.
type Tuning struct {
	Queue int           // ring queue size
	Batch int           // max records per delivery batch
	Flush time.Duration // max delay before a partial batch flushes
	Block bool          // lossless Block policy instead of DropOldest
}

// FromSpec builds a pump sink from a -sink spec: the kind keyword
// ("promrw" | "influx" | "otlp") and its URL argument. Option keys in
// the URL query are consumed by the pump; anything else stays on the
// URL. Shared options:
//
//	token=T        Authorization: Bearer T
//	token_env=VAR  like token=, reading T from $VAR (must be non-empty)
//	name=N         pump label value, nrscope_pump_*{pump="N"} (default: kind)
//	epoch_ms=E     wall-clock base for sample timestamps
//	               (default: sink construction time; set it when
//	               backfilling a -replay run to place samples at
//	               capture time)
//	timeout=D      per-request timeout (Go duration, default 10s)
//	frame_kb=N     split frames beyond N KiB of body (default 4096,
//	               at most maxFrameKB = 1 Mi)
//	batch=N        bus delivery batch size (default 256, at most queue)
//	flush=D        bus max-delay flush (default 100ms)
//	queue=N        bus ring queue size (default 4096, at most
//	               maxQueue = 1 Mi records)
//	block=true     Block (lossless) backpressure instead of DropOldest
//
// A value above its cap is an error. influx: requires bucket=B; org=O
// optional; measurement=M renames the line measurement (an error for
// the other kinds); the path defaults to /api/v2/write and precision=ms
// is pinned. otlp: the path defaults to /v1/metrics.
func FromSpec(kind, arg string) (*Sink, Tuning, error) {
	fail := func(err error) (*Sink, Tuning, error) { return nil, Tuning{}, err }
	u, err := url.Parse(arg)
	if err != nil {
		return fail(fmt.Errorf("pump: %s spec: %w", kind, err))
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fail(fmt.Errorf("pump: %s spec needs an http(s):// URL, got %q", kind, arg))
	}
	q := u.Query()
	take := func(key string) string {
		v := q.Get(key)
		q.Del(key)
		return v
	}

	tun := Tuning{Queue: 4096, Batch: 256, Flush: 100 * time.Millisecond}
	takeInt := func(key string, dst *int, limit int) error {
		if v := take(key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return fmt.Errorf("pump: %s spec: %s=%q is not a positive integer", kind, key, v)
			}
			if n > limit {
				return fmt.Errorf("pump: %s spec: %s=%d is above its cap %d", kind, key, n, limit)
			}
			*dst = n
		}
		return nil
	}
	if err := takeInt("queue", &tun.Queue, maxQueue); err != nil {
		return fail(err)
	}
	if err := takeInt("batch", &tun.Batch, maxQueue); err != nil {
		return fail(err)
	}
	if tun.Batch > tun.Queue {
		return fail(fmt.Errorf("pump: %s spec: batch=%d is above queue=%d", kind, tun.Batch, tun.Queue))
	}
	if v := take("flush"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return fail(fmt.Errorf("pump: %s spec: flush=%q is not a positive duration", kind, v))
		}
		tun.Flush = d
	}
	if v := take("block"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fail(fmt.Errorf("pump: %s spec: block=%q is not a bool", kind, v))
		}
		tun.Block = b
	}

	cfg := Config{Name: take("name"), Header: http.Header{}}
	if v := take("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return fail(fmt.Errorf("pump: %s spec: timeout=%q is not a positive duration", kind, v))
		}
		cfg.Timeout = d
	}
	frameKB := 0
	if err := takeInt("frame_kb", &frameKB, maxFrameKB); err != nil {
		return fail(err)
	}
	cfg.MaxFrameBytes = frameKB << 10

	// Auth hook: ?token= beats ?token_env= beats the AuthEnv fallback.
	token := take("token")
	if env := take("token_env"); token == "" && env != "" {
		token = os.Getenv(env)
		if token == "" {
			return fail(fmt.Errorf("pump: %s spec: token_env=%s names an empty environment variable", kind, env))
		}
	}
	if token != "" {
		cfg.Header.Set("Authorization", "Bearer "+token)
	} else if v := os.Getenv(AuthEnv); v != "" {
		cfg.Header.Set("Authorization", v)
	}

	base := time.Now().UnixMilli()
	if q.Has("epoch_ms") {
		base, err = strconv.ParseInt(take("epoch_ms"), 10, 64)
		if err != nil {
			return fail(fmt.Errorf("pump: %s spec: bad epoch_ms: %w", kind, err))
		}
	}

	measurement := take("measurement")
	if measurement != "" && kind != "influx" {
		return fail(fmt.Errorf("pump: %s spec: measurement= applies to influx only", kind))
	}
	switch kind {
	case "promrw":
		cfg.Encoder = &PromRW{BaseMs: base}
		cfg.Header.Set("X-Prometheus-Remote-Write-Version", "0.1.0")
	case "influx":
		bucket := take("bucket")
		if bucket == "" {
			return fail(fmt.Errorf("pump: influx spec needs ?bucket=NAME"))
		}
		if u.Path == "" || u.Path == "/" {
			u.Path = "/api/v2/write"
		}
		q.Set("bucket", bucket)
		if org := take("org"); org != "" {
			q.Set("org", org)
		}
		q.Set("precision", "ms")
		cfg.Encoder = &Influx{Measurement: measurement, BaseMs: base}
	case "otlp":
		if u.Path == "" || u.Path == "/" {
			u.Path = "/v1/metrics"
		}
		cfg.Encoder = &OTLP{BaseMs: base}
	default:
		return fail(fmt.Errorf("pump: unknown pump kind %q (want promrw, influx or otlp)", kind))
	}
	u.RawQuery = q.Encode()
	cfg.URL = u.String()
	s, err := New(cfg)
	if err != nil {
		return fail(err)
	}
	return s, tun, nil
}
