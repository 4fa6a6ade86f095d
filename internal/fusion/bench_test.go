package fusion

import (
	"testing"
	"time"

	"nrscope/internal/history"
	"nrscope/internal/phy"
	"nrscope/internal/telemetry"
)

// BenchmarkFusionIngest measures the aggregator's ingest hot path —
// history-store fold plus session accounting — under steady two-cell
// traffic with a realistic population of live C-RNTIs.
func BenchmarkFusionIngest(b *testing.B) {
	a := newAgg()
	if err := a.AddCell(1, phy.Mu1); err != nil {
		b.Fatal(err)
	}
	if err := a.AddCell(2, phy.Mu0); err != nil {
		b.Fatal(err)
	}
	const ues = 1000
	for i := 0; i < ues; i++ {
		_ = a.Ingest(1, telemetry.Record{SlotIdx: i, RNTI: uint16(1 + i), Downlink: true, TBS: 1000})
		_ = a.Ingest(2, telemetry.Record{SlotIdx: i, RNTI: uint16(1 + i), Downlink: true, TBS: 1000})
	}
	r := telemetry.Record{Downlink: true, TBS: 4000, NumPRB: 4, MCS: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell := uint16(1 + i%2)
		r.RNTI = uint16(1 + i%ues)
		r.SlotIdx = ues + i/2
		if err := a.Ingest(cell, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusionIngestChurn is the long-run profile: every record is a
// fresh one-shot C-RNTI, exercising session creation, handover matching
// and the idle sweep together.
func BenchmarkFusionIngestChurn(b *testing.B) {
	a := newAgg()
	a.IdleHorizon = time.Second
	if err := a.AddCell(1, phy.Mu0); err != nil {
		b.Fatal(err)
	}
	if err := a.AddCell(2, phy.Mu0); err != nil {
		b.Fatal(err)
	}
	r := telemetry.Record{Downlink: true, TBS: 4000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell := uint16(1 + i%2)
		r.RNTI = uint16(1 + i%60000)
		r.SlotIdx = i * 2
		if err := a.Ingest(cell, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCarrierAggregation measures the mask-correlation scan over a
// populated store: the query-side cost of the history-backed design.
func BenchmarkCarrierAggregation(b *testing.B) {
	st := history.New(history.Config{BinWidth: 10 * time.Millisecond, Depth: 128})
	a := NewWithStore(st)
	if err := a.AddCell(1, phy.Mu0); err != nil {
		b.Fatal(err)
	}
	if err := a.AddCell(2, phy.Mu0); err != nil {
		b.Fatal(err)
	}
	// 50 sessions per cell, each active across the retained window.
	for i := 0; i < 1000; i++ {
		for u := 0; u < 50; u++ {
			_ = a.Ingest(1, telemetry.Record{SlotIdx: i, RNTI: uint16(0x100 + u), Downlink: true, TBS: 1000})
			_ = a.Ingest(2, telemetry.Record{SlotIdx: i, RNTI: uint16(0x200 + u), Downlink: true, TBS: 1000})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cas := a.CarrierAggregation(0.7); len(cas) == 0 {
			b.Fatal("no CA candidates on fully correlated traffic")
		}
	}
}
