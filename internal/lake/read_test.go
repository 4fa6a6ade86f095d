package lake

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nrscope/internal/history"
	"nrscope/internal/telemetry"
)

// TestTruncatedSegmentSkipped truncates, underneath an open lake, one
// sealed and one active segment, each inside a block whose payload runs
// pages past the new end of the file. Reading a lost block's bytes then
// finds nothing (a short read, or a fault in a mapping of the file), and
// ReadSeries, Query and TopK must each skip the block, count one CRC
// error per lost block they touch, and still answer from the blocks
// left whole.
func TestTruncatedSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	const n = 500 // bins per block: each payload spans a few pages
	ueA, ueB, ueC := uint16(0xA), uint16(0xB), uint16(0xC)
	spillRange := func(l *Lake, cell, rnti uint16, from int64) {
		for i := from; i < from+n; i++ {
			spill(l, cell, rnti, false, i, testBin(i))
		}
	}
	// Session one, sealed by Close: A and B on cell 1, C on cell 2.
	l, err := Open(dir, idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	spillRange(l, 1, ueA, 0)
	spillRange(l, 1, ueB, 0)
	spillRange(l, 2, ueC, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Session two, left active: the next bins of every series.
	l, err = Open(dir, idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	spillRange(l, 1, ueA, n)
	spillRange(l, 1, ueB, n)
	spillRange(l, 2, ueC, n)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	// The writer is idle, so the index can be read from here.
	block := func(rnti uint16, minIdx int64) blockRef {
		for _, r := range l.series[seriesKey{cell: 1, rnti: rnti, kind: kindUE}].refs {
			if r.minIdx == minIdx {
				return r
			}
		}
		t.Fatalf("no block of %#x starts at bin %d", rnti, minIdx)
		return blockRef{}
	}
	sealedB, activeA, activeB := block(ueB, 0), block(ueA, n), block(ueB, n)
	if !sealedB.seg.sealed || activeA.seg.sealed || activeA.seg != activeB.seg || activeB.off < activeA.off {
		t.Fatalf("want B's first block in a sealed segment and A's then B's second in an active one: %+v %+v %+v", sealedB, activeA, activeB)
	}
	if page := os.Getpagesize(); sealedB.plen < 2*page || activeA.plen < 2*page {
		t.Fatalf("payloads of %d and %d bytes do not span two %d-byte pages", sealedB.plen, activeA.plen, page)
	}
	// Cut each file one byte into the payload: the frame header stays,
	// the rest of the block (and everything after it) is gone.
	for _, r := range []blockRef{sealedB, activeA} {
		if err := os.Truncate(r.seg.path, r.off+frameHdr+1); err != nil {
			t.Fatal(err)
		}
	}

	crc := met.crcErrors.Value()
	lost := func(what string, want int64) {
		t.Helper()
		if got := met.crcErrors.Value() - crc; got != want {
			t.Errorf("%s: %d CRC errors counted, want %d", what, got, want)
		}
		crc = met.crcErrors.Value()
	}
	dl := func(from, to int64) (sum int64) {
		for i := from; i < to; i++ {
			sum += testBin(i).DLBits
		}
		return sum
	}
	if got := readAll(t, l, 1, ueA, false); len(got) != n || got[0] != testBin(0) || got[n-1] != testBin(n-1) {
		t.Errorf("ReadSeries(A) = %d bins, want bins 0..%d from the sealed segment", len(got), n-1)
	}
	lost("ReadSeries(A)", 1)
	if got := readAll(t, l, 1, ueB, false); len(got) != 0 {
		t.Errorf("ReadSeries(B) = %d bins, want none", len(got))
	}
	lost("ReadSeries(B)", 2)
	if got := readAll(t, l, 2, ueC, false); len(got) != 2*n || got[2*n-1] != testBin(2*n-1) {
		t.Errorf("ReadSeries(C) = %d bins, want %d from the untouched segments", len(got), 2*n)
	}
	lost("ReadSeries(C)", 0)

	st := history.New(history.Config{BinWidth: 100 * time.Millisecond, Depth: 2})
	if err := st.AddCell(9, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st.AttachLake(l)
	// One record on another cell moves the store's clock past every
	// spilled bin, so TopK's trailing window covers them all.
	st.Ingest(9, telemetry.Record{TMs: 100 * 3 * n, RNTI: 0x99, Downlink: true, TBS: 1})
	bins, err := st.Query(1, ueA, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range bins {
		sum += s.DLBits
	}
	if want := dl(0, n); sum != want {
		t.Errorf("Query(A) sums %d bits, want %d", sum, want)
	}
	lost("Query(A)", 1)
	ranks, err := st.TopK("dl_bits", time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	lost("TopK", 3)
	want := []history.UERank{
		{Cell: 2, RNTI: ueC, Value: float64(dl(0, 2*n))},
		{Cell: 1, RNTI: ueA, Value: float64(dl(0, n))},
		{Cell: 9, RNTI: 0x99, Value: 1},
	}
	if !slices.Equal(ranks, want) {
		t.Errorf("TopK = %+v, want %+v", ranks, want)
	}
}

// FuzzSeriesIndexMatchesScan publishes refs in any order, overlapping
// as the layout says, with one wide block like a compaction's among
// them, and checks appendOverlapping against a linear filter over every
// published ref for windows over the whole span.
func FuzzSeriesIndexMatchesScan(f *testing.F) {
	f.Add([]byte{0, 4, 5, 4, 10, 2, 3}, int64(3), int64(7))
	f.Add([]byte{20, 3, 0, 1, 5, 9, 2, 0, 40}, int64(0), int64(30))
	f.Add([]byte{9, 0, 9, 0, 9, 15, 1, 1, 0}, int64(9), int64(9))
	f.Fuzz(func(t *testing.T, layout []byte, from, to int64) {
		if len(layout) == 0 || len(layout) > 512 {
			return
		}
		var si seriesIndex
		var all []blockRef
		publish := func(minIdx, maxIdx int64) {
			r := blockRef{off: int64(len(all)), minIdx: minIdx, maxIdx: maxIdx, count: 1}
			si.add(r)
			all = append(all, r)
		}
		// The last byte places the wide block among the others and sets
		// where it starts; each pair before it is a block's first bin and
		// span.
		wide, pairs := layout[len(layout)-1], layout[:len(layout)-1]
		at := int(wide) % (len(pairs)/2 + 1)
		for i := 0; i+1 < len(pairs); i += 2 {
			if i/2 == at {
				publish(int64(wide%8), int64(wide%8)+200)
			}
			minIdx := int64(pairs[i])
			publish(minIdx, minIdx+int64(pairs[i+1]%16))
		}
		if at == len(pairs)/2 {
			publish(int64(wide%8), int64(wide%8)+200)
		}
		if !slices.IsSortedFunc(si.refs, func(a, b blockRef) int { return cmp.Compare(a.minIdx, b.minIdx) }) {
			t.Fatalf("index refs not sorted by first bin: %+v", si.refs)
		}
		check := func(from, to int64) {
			var want []blockRef
			for _, r := range all {
				if r.maxIdx >= from && r.minIdx <= to {
					want = append(want, r)
				}
			}
			got := si.appendOverlapping(nil, from, to)
			byOff := func(a, b blockRef) int { return cmp.Compare(a.off, b.off) }
			slices.SortFunc(got, byOff)
			if !slices.Equal(got, want) {
				t.Fatalf("window [%d, %d]: index gives %+v, linear filter %+v", from, to, got, want)
			}
		}
		check(from, to)
		for lo := int64(-3); lo < 300; lo += 7 {
			for _, w := range []int64{0, 1, 5, 40, 400} {
				check(lo, lo+w)
			}
		}
	})
}

// TestReadsWhileMappingGrows spills bursts that outgrow the mapping
// each active segment was created with, so the writer remaps active
// segments while ReadSeries and the ranking's lake scan run from two
// goroutines. Each read must see exactly the bins spilled so far.
func TestReadsWhileMappingGrows(t *testing.T) {
	cfg := Config{
		SegmentBytes: 16 << 10, FlushInterval: time.Millisecond,
		QueueDepth: 1 << 16, CompactMinSegments: 1 << 30,
	}
	l, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const ues, bursts, perBurst = 4, 24, 1000
	// mu stands in for the history store's lock: spills under the write
	// lock, reads under the read lock.
	var mu sync.RWMutex
	var spilled atomic.Int64 // bins spilled into every series so far
	done := make(chan struct{})
	errs := make(chan error, 2)
	var reads atomic.Int64
	reader := func(check func(n int64) error) {
		for {
			select {
			case <-done:
				errs <- nil
				return
			default:
			}
			mu.RLock()
			err := check(spilled.Load())
			mu.RUnlock()
			if err != nil {
				errs <- err
				return
			}
			reads.Add(1)
		}
	}
	go reader(func(n int64) error {
		// Queued bins come after indexed ones, and the ring's before
		// the writer's batch in flight, so bins need not come in order.
		rnti := uint16(0x100 + n%ues)
		seen := make([]bool, n)
		var got int64
		var bad error
		l.ReadSeries(1, rnti, false, 0, 1<<40, func(idx int64, b history.Bin) {
			switch {
			case idx < 0 || idx >= n:
				bad = fmt.Errorf("series %#x: bin %d read, %d spilled", rnti, idx, n)
			case seen[idx] || b != testBin(idx):
				bad = fmt.Errorf("series %#x: bin %d read twice or as %+v", rnti, idx, b)
			default:
				seen[idx] = true
				got++
			}
		})
		if bad == nil && got != n {
			bad = fmt.Errorf("series %#x: %d bins read, %d spilled", rnti, got, n)
		}
		return bad
	})
	go reader(func(n int64) error {
		sums := scanUEs(t, l, 0, 1<<40, history.Metric{Num: history.DLBitsField})
		want := float64(1000*n + n*(n-1)/2)
		for u := uint16(0); u < ues && n > 0; u++ {
			if got := sums[ueKey{1, 0x100 + u}]; got != want {
				return fmt.Errorf("scan after %d bins: series %#x sums %v, want %v", n, 0x100+u, got, want)
			}
		}
		return nil
	})
	for b := int64(0); b < bursts; b++ {
		mu.Lock()
		for i := b * perBurst; i < (b+1)*perBurst; i++ {
			for u := uint16(0); u < ues; u++ {
				spill(l, 1, 0x100+u, false, i, testBin(i))
			}
		}
		spilled.Add(perBurst)
		mu.Unlock()
		time.Sleep(3 * time.Millisecond)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	close(done)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if d := l.Stats().DroppedEntries; d != 0 {
		t.Fatalf("%d spills dropped: the ring was too shallow for the bursts", d)
	}
	grown := 0
	for _, s := range l.segs {
		if s.size > activeReserve(cfg.SegmentBytes) {
			grown++
		}
	}
	if grown == 0 {
		t.Errorf("no segment outgrew its first mapping: the test does not exercise remapping")
	}
	t.Logf("%d reads, %d of %d segments outgrew their first mapping", reads.Load(), grown, len(l.segs))
}
