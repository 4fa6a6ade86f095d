package history_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nrscope/internal/history"
	"nrscope/internal/lake"
)

// fuzzEndpoints are the documented /history/* routes; a fuzz input
// picks one by index.
var fuzzEndpoints = []string{"/history/ues", "/history/ue", "/history/cell", "/history/anomalies", "/history/topk"}

// lakeStore is liveStore's traffic in a store whose 8-bin rings spill
// the older bins to a lake under dir, synced so queries read them back.
func lakeStore(tb testing.TB, dir string) *history.Store {
	tb.Helper()
	binWidth := 100 * time.Millisecond
	lk, err := lake.Open(dir, lake.Config{BinWidth: binWidth})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = lk.Close() })
	st := history.New(history.Config{BinWidth: binWidth, Depth: 8})
	st.AttachLake(lk)
	fillStore(tb, st)
	if err := lk.Sync(); err != nil {
		tb.Fatal(err)
	}
	if lk.Stats().SpilledBins == 0 {
		tb.Fatal("nothing spilled: the lake target would query RAM only")
	}
	return st
}

// FuzzHistoryHTTP drives the /history/* query API with arbitrary query
// strings against a RAM-only store and one with a lake. Whatever the
// parameters, the handler must not panic, must answer 200, 400 or 404,
// and must answer with a valid JSON body.
func FuzzHistoryHTTP(f *testing.F) {
	for _, seed := range []struct {
		endpoint uint8
		query    string
	}{
		{0, ""},
		{0, "cell=1"},
		{1, "rnti=0x0100&window=2s"},
		{1, "rnti=256&from_ms=100&to_ms=900&downsample=2"},
		{2, "cell=1&window=1s"},
		{2, "from_ms=0&to_ms=1500&downsample=3"},
		{3, ""},
		{4, "metric=dl_bits&window=1s&k=10"},
		{4, "metric=retx_rate&window=2s&k=2"},
		{1, "rnti=0x0100&from_ms=NaN"},
		{2, "to_ms=NaN"},
		{2, "from_ms=Inf&to_ms=-Inf"},
		{1, "rnti=0x0101&from_ms=1e300"},
		{2, "to_ms=1e300&from_ms=-1e300"},
		{1, "rnti=0x0102&downsample=9223372036854775807"},
		{2, "downsample=9223372036854775807"},
		{4, "k=9223372036854775807"},
		{1, "rnti=0x0103&window=2562047h"},
		{2, "window=2562047h"},
		{4, "metric=bits&window=2562047h"},
	} {
		f.Add(seed.endpoint, seed.query)
	}
	stores := []*history.Store{liveStore(f), lakeStore(f, f.TempDir())}
	f.Fuzz(func(t *testing.T, endpoint uint8, query string) {
		for i, st := range stores {
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			req.URL.Path = fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
			req.URL.RawQuery = query
			rec := httptest.NewRecorder()
			st.Handler().ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Errorf("store %d: %s?%s: status %d", i, req.URL.Path, query, rec.Code)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Errorf("store %d: %s?%s: status %d, body not JSON: %q", i, req.URL.Path, query, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
