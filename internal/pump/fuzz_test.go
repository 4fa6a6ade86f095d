package pump

import (
	"net/url"
	"strings"
	"testing"
)

// pumpOnlyKeys are the query keys FromSpec consumes: none may reach the
// backend on the sink's URL.
var pumpOnlyKeys = []string{
	"token", "token_env", "name", "epoch_ms", "timeout", "frame_kb",
	"batch", "flush", "queue", "block", "measurement",
}

// FuzzFromSpec feeds -sink pump specs, split at the first ':' as the
// CLI splits them, to FromSpec. It must never panic; a spec it accepts
// must yield an http(s) URL carrying no pump-only option, and a tuning
// within the documented caps.
func FuzzFromSpec(f *testing.F) {
	for _, spec := range []string{
		// The README's -sink forms.
		"promrw:http://tsdb:9090/api/v1/write",
		"influx:http://db:8086?bucket=nr&org=lab&epoch_ms=1723113600000&block=true",
		"influx:http://db:8086?bucket=B&measurement=m",
		"otlp:http://collector:4318",
		// Every option of the README's option table.
		"promrw:https://tsdb/api/v1/write?token=T&name=edge&timeout=2s&frame_kb=256",
		"otlp:http://c:4318/v1/metrics?token_env=HOME&batch=32&flush=5ms&queue=64",
		"influx:http://db?bucket=b&queue=1048576&batch=1048576&frame_kb=1048576&keep=1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		kind, arg, _ := strings.Cut(spec, ":")
		s, tun, err := FromSpec(kind, arg)
		if err != nil {
			return
		}
		u, err := url.Parse(s.URL())
		if err != nil {
			t.Fatalf("%q: sink URL %q does not parse: %v", spec, s.URL(), err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			t.Fatalf("%q: sink URL %q is not http(s)", spec, s.URL())
		}
		if tun.Queue < 1 || tun.Queue > maxQueue || tun.Batch < 1 || tun.Batch > tun.Queue {
			t.Fatalf("%q: tuning %+v outside the caps", spec, tun)
		}
		if s.maxFrame < 1 || s.maxFrame > maxFrameKB<<10 {
			t.Fatalf("%q: frame cap %d outside (0, %d]", spec, s.maxFrame, maxFrameKB<<10)
		}
		q := u.Query()
		for _, k := range pumpOnlyKeys {
			if q.Has(k) {
				t.Fatalf("%q: pump option %s= left on the sink URL %q", spec, k, s.URL())
			}
		}
	})
}
