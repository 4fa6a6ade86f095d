package lake

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"nrscope/internal/history"
	"nrscope/internal/telemetry"
)

// idleCfg keeps the background writer asleep except when poked by a
// push notify or a Sync, so tests control flush boundaries exactly.
func idleCfg() Config {
	return Config{FlushInterval: time.Hour}
}

// spill pushes one bin by value — test convenience over the
// pointer-taking hot-path API.
func spill(l *Lake, cell, rnti uint16, cellSeries bool, idx int64, b history.Bin) {
	l.SpillBin(cell, rnti, cellSeries, idx, &b)
}

func testBin(i int64) history.Bin {
	return history.Bin{
		DLBits: 1000 + i, ULBits: 500 + i, Grants: 10 + i, Retx: i % 3,
		PRBs: 40, MCSSum: 20 * (10 + i), MCSCount: 10 + i,
		MCSMin: 2, MCSMax: 27, SpareBits: float64(i) * 0.5,
	}
}

func readAll(t *testing.T, l *Lake, cell, rnti uint16, cellSeries bool) map[int64]history.Bin {
	t.Helper()
	out := make(map[int64]history.Bin)
	err := l.ReadSeries(cell, rnti, cellSeries, 0, 1<<40, func(idx int64, b history.Bin) {
		old := out[idx]
		old.Merge(b)
		out[idx] = old
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

type ueKey struct{ cell, rnti uint16 }

// scanUEs sums ScanUEs' partials per UE.
func scanUEs(t *testing.T, l *Lake, fromIdx, toIdx int64, m history.Metric) map[ueKey]float64 {
	t.Helper()
	out := make(map[ueKey]float64)
	for _, p := range l.ScanUEs(fromIdx, toIdx, m) {
		out[ueKey{p.Cell, p.RNTI}] += p.Num
	}
	return out
}

func onlySegFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "cell-*", "seg-*.seg"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("segment files = %v (err %v), want exactly 1", matches, err)
	}
	return matches[0]
}

// TestLakeRoundtrip spills bins and anomalies, syncs, and checks every
// read API before and after a clean close/reopen cycle.
func TestLakeRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := int64(0); i < n; i++ {
		spill(l, 3, 0x4601, false, i, testBin(i))
		spill(l, 3, 0x4602, false, i, testBin(2*i))
		spill(l, 3, 0, true, i, testBin(3*i))
	}
	l.SpillAnomaly(history.Anomaly{Cell: 3, RNTI: 0x4601, Kind: "retx_spike", AtMs: 700, Value: 0.5, Baseline: 0.1})
	l.SpillAnomaly(history.Anomaly{Cell: 3, RNTI: 0x4602, Kind: "throughput_collapse", AtMs: 300, Value: 100, Baseline: 9000})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	check := func(l *Lake, when string) {
		t.Helper()
		for rnti, mult := range map[uint16]int64{0x4601: 1, 0x4602: 2} {
			got := readAll(t, l, 3, rnti, false)
			if len(got) != n {
				t.Fatalf("%s: rnti %#x bins = %d, want %d", when, rnti, len(got), n)
			}
			for i := int64(0); i < n; i++ {
				if got[i] != testBin(mult*i) {
					t.Errorf("%s: rnti %#x bin %d = %+v, want %+v", when, rnti, i, got[i], testBin(mult*i))
				}
			}
		}
		cellBins := readAll(t, l, 3, 0, true)
		if len(cellBins) != n || cellBins[7] != testBin(21) {
			t.Errorf("%s: cell series %d bins, bin 7 = %+v", when, len(cellBins), cellBins[7])
		}
		// Range restriction.
		ranged := make(map[int64]history.Bin)
		l.ReadSeries(3, 0x4601, false, 10, 19, func(idx int64, b history.Bin) { ranged[idx] = b })
		if len(ranged) != 10 {
			t.Errorf("%s: ranged read = %d bins, want 10", when, len(ranged))
		}
		minIdx, maxIdx, ok := l.SeriesBounds(3, 0x4601, false)
		if !ok || minIdx != 0 || maxIdx != n-1 {
			t.Errorf("%s: bounds = [%d,%d] ok=%v", when, minIdx, maxIdx, ok)
		}
		if _, _, ok := l.SeriesBounds(9, 0x4601, false); ok {
			t.Errorf("%s: bounds for unknown cell reported ok", when)
		}
		if ues := scanUEs(t, l, 0, 1<<40, history.Metric{Num: history.DLBitsField}); len(ues) != 2 ||
			ues[ueKey{3, 0x4601}] != float64(n*1000+n*(n-1)/2) || ues[ueKey{3, 0x4602}] != float64(n*1000+n*(n-1)) {
			t.Errorf("%s: scanned UEs = %v", when, ues)
		}
		anoms := l.Anomalies()
		if len(anoms) != 2 || anoms[0].AtMs != 300 || anoms[1].Kind != "retx_spike" {
			t.Errorf("%s: anomalies = %+v", when, anoms)
		}
	}
	check(l, "live")
	st := l.Stats()
	if st.SpilledBins != 3*n || st.SpilledAnomalies != 2 || st.Segments == 0 || st.Bytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec := l2.Stats().RecoveredSegments; rec != 0 {
		t.Errorf("clean reopen recovered %d segments, want 0 (footer fast path)", rec)
	}
	check(l2, "reopened")
}

// TestLakeQueueVisibility: a spilled bin must be readable before the
// writer has flushed it (exactly-once across pending/inflight/index).
func TestLakeQueueVisibility(t *testing.T) {
	l, err := Open(t.TempDir(), idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	spill(l, 1, 0x10, false, 42, testBin(1))
	// No Sync: the entry may be pending, inflight, or already indexed
	// depending on writer timing — all three must be visible exactly once.
	got := readAll(t, l, 1, 0x10, false)
	if len(got) != 1 || got[42] != testBin(1) {
		t.Fatalf("pre-flush read = %v", got)
	}
	if _, maxIdx, ok := l.SeriesBounds(1, 0x10, false); !ok || maxIdx != 42 {
		t.Fatalf("pre-flush bounds maxIdx=%d ok=%v", maxIdx, ok)
	}
	if ues := scanUEs(t, l, 42, 42, history.Metric{Num: history.GrantsField}); len(ues) != 1 || ues[ueKey{1, 0x10}] != 11 {
		t.Fatalf("pre-flush ScanUEs = %v", ues)
	}
}

// TestCorruptBlockSkipped flips one payload byte of one block in a
// sealed segment. ReadSeries, TopK and Query skip that block alone —
// its neighbours in the same coalesced read included — and each read
// that touches it counts one CRC error.
func TestCorruptBlockSkipped(t *testing.T) {
	cfg := idleCfg()
	cfg.SegmentBytes = 1 // seal the segment after every flush
	l, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st := history.New(history.Config{BinWidth: 100 * time.Millisecond, Depth: 2})
	if err := st.AddCell(1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st.AttachLake(l)
	ues := []uint16{0xA, 0xB, 0xC}
	feed := func(from, to int) {
		for bin := from; bin < to; bin++ {
			for i, rnti := range ues {
				st.Ingest(1, telemetry.Record{TMs: float64(bin*100 + i), RNTI: rnti, Downlink: true, TBS: 100 * (bin + 1)})
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	feed(0, 6)  // spills bins 0..3 of each series into one segment
	feed(6, 10) // spills bins 4..7 into a second one

	// The writer is idle, so the index can be read from here.
	first := func(rnti uint16) blockRef {
		for _, r := range l.series[seriesKey{cell: 1, rnti: rnti, kind: kindUE}].refs {
			if r.minIdx == 0 {
				return r
			}
		}
		t.Fatalf("no block of %#x starts at bin 0", rnti)
		return blockRef{}
	}
	a, b, c := first(0xA), first(0xB), first(0xC)
	if !a.seg.sealed || a.seg != b.seg || b.seg != c.seg || a.off+frameHdr+int64(a.plen) != b.off || b.off+frameHdr+int64(b.plen) != c.off {
		t.Fatalf("blocks of A, B, C are not back to back in one sealed segment: %+v %+v %+v", a, b, c)
	}
	f, err := os.OpenFile(b.seg.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := b.off + frameHdr + int64(b.plen) - 1
	var one [1]byte
	if _, err := f.ReadAt(one[:], at); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := f.WriteAt(one[:], at); err != nil {
		t.Fatal(err)
	}
	f.Close()

	crc := met.crcErrors.Value()
	touched := func(what string, want int64) {
		t.Helper()
		if got := met.crcErrors.Value() - crc; got != want {
			t.Errorf("%s: %d CRC errors counted, want %d", what, got, want)
		}
		crc = met.crcErrors.Value()
	}
	gotB := readAll(t, l, 1, 0xB, false)
	touched("ReadSeries(B)", 1)
	if len(gotB) != 4 || gotB[4].DLBits != 500 || gotB[7].DLBits != 800 {
		t.Errorf("ReadSeries(B) = %v, want bins 4..7", gotB)
	}
	if gotA := readAll(t, l, 1, 0xA, false); len(gotA) != 8 || gotA[0].DLBits != 100 {
		t.Errorf("ReadSeries(A) = %v, want bins 0..7", gotA)
	}
	touched("ReadSeries(A)", 0)

	ranks, err := st.TopK("dl_bits", time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	touched("TopK", 1)
	want := []history.UERank{{Cell: 1, RNTI: 0xA, Value: 5500}, {Cell: 1, RNTI: 0xC, Value: 5500}, {Cell: 1, RNTI: 0xB, Value: 4500}}
	if len(ranks) != 3 || ranks[0] != want[0] || ranks[1] != want[1] || ranks[2] != want[2] {
		t.Errorf("TopK = %+v, want %+v", ranks, want)
	}
	var sum int64
	bins, _ := st.Query(1, 0xB, 0, 0, 1)
	for _, s := range bins {
		sum += s.DLBits
	}
	touched("Query(B)", 1)
	if sum != 4500 {
		t.Errorf("Query(B) sums %d bits, want 4500", sum)
	}
}

// TestLakeCrashRecovery is the satellite acceptance test: kill the lake
// without sealing, tear the tail block mid-write, and require reopen to
// recover the manifest's segments, skip the torn block via CRC scan,
// and serve every fully-written block.
func TestLakeCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	// First flush: series 0x11, fully on disk.
	for i := int64(0); i < 20; i++ {
		spill(l, 5, 0x11, false, i, testBin(i))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	path := onlySegFile(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	intact := fi.Size()
	// Second flush: series 0x22 — this block will be torn.
	for i := int64(0); i < 20; i++ {
		spill(l, 5, 0x22, false, i, testBin(i))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= intact {
		t.Fatalf("second flush did not grow the segment (%d -> %d)", intact, fi.Size())
	}
	l.Abandon() // crash: no footer, handles dropped

	// Tear the tail block: cut it roughly in half.
	torn := intact + (fi.Size()-intact)/2
	if err := os.Truncate(path, torn); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec := l2.Stats().RecoveredSegments; rec != 1 {
		t.Errorf("recovered segments = %d, want 1", rec)
	}
	// The intact block survives in full...
	got := readAll(t, l2, 5, 0x11, false)
	if len(got) != 20 {
		t.Fatalf("recovered series = %d bins, want 20", len(got))
	}
	for i := int64(0); i < 20; i++ {
		if got[i] != testBin(i) {
			t.Errorf("recovered bin %d = %+v", i, got[i])
		}
	}
	// ...the torn block is gone, not half-decoded.
	if torn := readAll(t, l2, 5, 0x22, false); len(torn) != 0 {
		t.Errorf("torn block leaked %d bins", len(torn))
	}
	// The scan re-sealed the segment: a third open takes the footer path.
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= torn {
		// seal appends a footer after truncating the torn tail, so the
		// file must end at intact + footer, strictly above `intact`.
		if fi.Size() <= intact {
			t.Errorf("re-seal missing: size %d <= intact %d", fi.Size(), intact)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rec := l3.Stats().RecoveredSegments; rec != 0 {
		t.Errorf("third open recovered %d segments, want footer fast path", rec)
	}
	l3.Close()
}

// TestLakeOrphanRemoval: a segment file the manifest never learned
// about (crash between create and manifest add) is deleted at open.
func TestLakeOrphanRemoval(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	spill(l, 1, 0x1, false, 0, testBin(0))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "cell-00001", "seg-00000099.seg")
	if err := os.WriteFile(orphan, []byte("never registered"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan still present (err %v)", err)
	}
	if got := readAll(t, l2, 1, 0x1, false); len(got) != 1 {
		t.Errorf("registered data lost with the orphan: %v", got)
	}
}

// TestManifestTornSwap: a swap line missing its ";" sentinel (crash
// mid-append) must be ignored — the victims stay live.
func TestManifestTornSwap(t *testing.T) {
	dir := t.TempDir()
	a, b, merged := segName(1, 1), segName(1, 2), segName(1, 3)
	m, names, err := openManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("fresh manifest lists %v", names)
	}
	m.add(a)
	m.add(b)
	m.close()
	// Torn swap: no sentinel.
	f, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("swap " + merged + " " + a + " " + b); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m2, names, err := openManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != a || names[1] != b {
		t.Fatalf("torn swap changed liveness: %v", names)
	}
	// Committed swap replaces the victims.
	if err := m2.swap(merged, []string{a, b}); err != nil {
		t.Fatal(err)
	}
	m2.close()
	m3, names, err := openManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m3.close()
	if len(names) != 1 || names[0] != merged {
		t.Fatalf("committed swap result: %v", names)
	}
}

// TestLakeCompaction: restart churn leaves many small sealed segments;
// the maintenance pass merges them into one, collapsing duplicate bin
// rows, without losing a single bin or anomaly.
func TestLakeCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := idleCfg()
	cfg.CompactMinSegments = 3
	// Four open/spill/close cycles -> four small sealed segments, with
	// bin 5 split across two of them (partial-bin respill).
	for round := int64(0); round < 4; round++ {
		l, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := round * 5; i < round*5+6; i++ { // one bin of overlap per round
			spill(l, 7, 0x31, false, i, testBin(1))
		}
		l.SpillAnomaly(history.Anomaly{Cell: 7, RNTI: 0x31, Kind: "retx_spike", AtMs: float64(round * 100)})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	before := readAll(t, l, 7, 0x31, false)
	if l.Stats().Segments != 4 {
		t.Fatalf("pre-compaction segments = %d, want 4", l.Stats().Segments)
	}
	// The writer is idle (hour-long ticker, empty queue), so driving the
	// maintenance pass from here is the writer-goroutine role.
	l.maintain()
	st := l.Stats()
	if st.Compactions != 1 || st.Segments != 1 {
		t.Fatalf("post-compaction stats = %+v", st)
	}
	after := readAll(t, l, 7, 0x31, false)
	if len(after) != len(before) {
		t.Fatalf("compaction changed bin count %d -> %d", len(before), len(after))
	}
	for idx, b := range before {
		if after[idx] != b {
			t.Errorf("bin %d: %+v -> %+v", idx, b, after[idx])
		}
	}
	// Overlap bins (5, 10, 15) were spilled twice and must now decode as
	// one merged row per index from a single block.
	if after[5] != func() history.Bin { b := testBin(1); b.Merge(testBin(1)); return b }() {
		t.Errorf("overlap bin not merged: %+v", after[5])
	}
	if anoms := l.Anomalies(); len(anoms) != 4 || anoms[0].AtMs != 0 || anoms[3].AtMs != 300 {
		t.Errorf("anomalies after compaction = %+v", anoms)
	}
	// The swap is durable: reopen sees only the merged segment.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Stats().Segments != 1 {
		t.Errorf("reopen after compaction: %d segments", l2.Stats().Segments)
	}
	if got := readAll(t, l2, 7, 0x31, false); len(got) != len(before) {
		t.Errorf("reopen after compaction lost bins: %d vs %d", len(got), len(before))
	}
}

// TestLakeRetention: sealed segments wholly behind the horizon are
// deleted; fresh ones survive.
func TestLakeRetention(t *testing.T) {
	dir := t.TempDir()
	cfg := idleCfg()
	cfg.Retention = 10 * time.Second // 100 bins at the default width
	cfg.CompactMinSegments = 1 << 30 // keep compaction out of the way
	// Old segment: bins 0..9, sealed by Close.
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		spill(l, 2, 0x51, false, i, testBin(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Advance the horizon far past the old segment.
	spill(l, 2, 0x51, false, 500, testBin(500))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.maintain()
	if minIdx, maxIdx, ok := l.SeriesBounds(2, 0x51, false); !ok || minIdx != 500 || maxIdx != 500 {
		t.Errorf("post-retention bounds = [%d,%d] ok=%v, want [500,500]", minIdx, maxIdx, ok)
	}
	if got := readAll(t, l, 2, 0x51, false); len(got) != 1 {
		t.Errorf("post-retention bins = %v", got)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "cell-*", "seg-*.seg"))
	if len(matches) != 1 {
		t.Errorf("post-retention segment files = %v", matches)
	}
}

// TestLakeSoakFlatHeap is the acceptance soak: heap stays flat while
// the on-disk segment byte count keeps growing.
func TestLakeSoakFlatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	l, err := Open(t.TempDir(), Config{FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	spillRound := func(round int64) {
		for i := int64(0); i < 2000; i++ {
			idx := round*2000 + i
			spill(l, 1, uint16(0x100+idx%8), false, idx, testBin(idx))
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up establishes steady state (queue ring, encoder buffers).
	for r := int64(0); r < 5; r++ {
		spillRound(r)
	}
	baseHeap := heap()
	baseBytes := l.Stats().Bytes
	for r := int64(5); r < 50; r++ {
		spillRound(r)
	}
	growHeap := int64(heap()) - int64(baseHeap)
	growBytes := l.Stats().Bytes - baseBytes
	if growBytes <= 0 {
		t.Fatalf("segment bytes did not grow (%d)", growBytes)
	}
	const heapCap = 4 << 20
	if growHeap > heapCap {
		t.Errorf("heap grew %d bytes (cap %d) while spilling %d segment bytes",
			growHeap, int64(heapCap), growBytes)
	}
	if d := l.Stats().DroppedEntries; d != 0 {
		t.Errorf("soak dropped %d entries", d)
	}
	t.Logf("heap %+d bytes, segments +%d bytes", growHeap, growBytes)
}

// TestCrashRecoveryAnomalyBounds: anomaly blocks rescued by the CRC
// scan must carry their real AtMs bounds, both in the recovered index
// and in the re-sealed footer — zero bounds would make retention read
// the segment as infinitely old and delete live anomaly data.
func TestCrashRecoveryAnomalyBounds(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	l.SpillAnomaly(history.Anomaly{Cell: 5, RNTI: 0x11, Kind: "retx_spike", AtMs: 1234, Value: 1, Baseline: 0.1})
	l.SpillAnomaly(history.Anomaly{Cell: 5, RNTI: 0x12, Kind: "throughput_collapse", AtMs: 5678, Value: 2, Baseline: 0.2})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Abandon() // crash: segment unsealed, reopen must recover by scan

	// First reopen recovers by scan (and re-seals); second reopen takes
	// the footer fast path. Both must see real ms bounds.
	for _, via := range []string{"scan", "footer"} {
		l2, err := Open(dir, idleCfg())
		if err != nil {
			t.Fatal(err)
		}
		l2.mu.RLock()
		refs := append([]blockRef(nil), l2.anomRefs...)
		l2.mu.RUnlock()
		if len(refs) == 0 {
			t.Fatalf("%s: no anomaly refs recovered", via)
		}
		minMs, maxMs := refs[0].minIdx, refs[0].maxIdx
		for _, r := range refs[1:] {
			minMs, maxMs = min(minMs, r.minIdx), max(maxMs, r.maxIdx)
		}
		if minMs != 1234 || maxMs != 5678 {
			t.Errorf("%s: anomaly ref bounds = [%d,%d] ms, want [1234,5678]", via, minMs, maxMs)
		}
		if anoms := l2.Anomalies(); len(anoms) != 2 || anoms[0].AtMs != 1234 || anoms[1].AtMs != 5678 {
			t.Errorf("%s: recovered anomalies = %+v", via, anoms)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGaugesSumAcrossLakes: two lakes open in one process (as with
// -shards 2 -lake) each publish their share of the process-wide
// segment, byte and queue gauges, so the gauges read the sum of the
// lakes' Stats; a lake that closes takes its share back out.
func TestGaugesSumAcrossLakes(t *testing.T) {
	gauges := func() [3]int64 {
		return [3]int64{met.segments.Value(), met.bytes.Value(), met.queuedEntries.Value()}
	}
	base := gauges()
	a, err := Open(t.TempDir(), idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(t.TempDir(), idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := int64(0); i < 40; i++ {
		spill(a, 1, 0x4601, false, i, testBin(i))
		spill(a, 2, 0x4602, false, i, testBin(i))
		if i < 25 {
			spill(b, 3, 0x4603, false, i, testBin(i))
		}
	}
	for _, l := range []*Lake{a, b} {
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	want := func(ls ...*Lake) [3]int64 {
		w := base
		for _, l := range ls {
			st := l.Stats()
			w[0] += int64(st.Segments)
			w[1] += st.Bytes
			w[2] += l.stQueued.Load()
		}
		return w
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Segments != 2 || sb.Segments != 1 || sa.Bytes == 0 || sb.Bytes == 0 {
		t.Fatalf("stats a = %+v, b = %+v: want 2 and 1 non-empty segments", sa, sb)
	}
	if got, w := gauges(), want(a, b); got != w {
		t.Errorf("gauges (segments, bytes, queue) = %v, want the two lakes' sum %v", got, w)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got, w := gauges(), want(b); got != w {
		t.Errorf("after one lake closed, gauges = %v, want the other lake's %v", got, w)
	}
	b.Abandon()
	if got := gauges(); got != base {
		t.Errorf("after both lakes closed, gauges = %v, want %v", got, base)
	}
}
