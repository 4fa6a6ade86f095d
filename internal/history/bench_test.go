package history_test

import (
	"testing"
	"time"

	"nrscope/internal/history"
	"nrscope/internal/lake"
	"nrscope/internal/telemetry"
)

// BenchmarkHistoryIngest measures the steady-state ingest rate with 10k
// tracked UEs — the CI bench artifact's records/s + allocs/record
// number for the store's hot path.
func BenchmarkHistoryIngest(b *testing.B) {
	st := history.New(history.Config{BinWidth: 100 * time.Millisecond, Depth: 64, MaxUEs: 10000})
	if err := st.AddCell(1, 500*time.Microsecond); err != nil {
		b.Fatal(err)
	}
	const ues = 10000
	for i := 0; i < ues; i++ {
		st.Ingest(1, telemetry.Record{TMs: float64(i) * 0.01, RNTI: uint16(i), Downlink: true, TBS: 1000, MCS: 10, NumPRB: 4})
	}
	rec := telemetry.Record{Downlink: true, TBS: 1000, MCS: 10, NumPRB: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.RNTI = uint16(i % ues)
		rec.TMs = 100 + float64(i)*0.001
		rec.IsRetx = i%16 == 0
		st.Ingest(1, rec)
	}
}

// BenchmarkHistoryQuery measures a windowed UE query against a busy
// store (read path under the ingest write lock's contention profile).
func BenchmarkHistoryQuery(b *testing.B) {
	st := history.New(history.Config{BinWidth: 100 * time.Millisecond, Depth: 64, MaxUEs: 10000})
	if err := st.AddCell(1, 500*time.Microsecond); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		st.Ingest(1, telemetry.Record{TMs: float64(i) * 0.01, RNTI: uint16(i % 1000), Downlink: true, TBS: 1000, MCS: 10, NumPRB: 4})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bins, _ := st.QueryWindow(1, uint16(i%1000), time.Second, 1); len(bins) == 0 {
			b.Fatal("empty query")
		}
	}
}

// BenchmarkHistoryTopK ranks 4096 UEs whose 8-bin rings spill into a
// lake, over a window the rings hold and over one that reaches 1.2 s
// into the lake.
func BenchmarkHistoryTopK(b *testing.B) {
	const ues = 4096
	lk, err := lake.Open(b.TempDir(), lake.Config{BinWidth: 100 * time.Millisecond, QueueDepth: 1 << 18})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = lk.Close() })
	st := history.New(history.Config{BinWidth: 100 * time.Millisecond, Depth: 8, MaxUEs: ues})
	if err := st.AddCell(1, 500*time.Microsecond); err != nil {
		b.Fatal(err)
	}
	st.AttachLake(lk)
	for bin := 0; bin < 50; bin++ {
		for u := 0; u < ues; u++ {
			st.Ingest(1, telemetry.Record{TMs: float64(bin)*100 + float64(u)*0.02, RNTI: uint16(u), Downlink: true, TBS: 1000 + u, MCS: 10, NumPRB: 4})
		}
	}
	if err := lk.Sync(); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		window time.Duration
	}{{"ram", 500 * time.Millisecond}, {"lake", 2 * time.Second}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ranks, err := st.TopK("dl_bits", bc.window, 10); err != nil || len(ranks) != 10 {
					b.Fatalf("TopK = %v, %v", ranks, err)
				}
			}
		})
	}
}
