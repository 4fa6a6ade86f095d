package lake

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nrscope/internal/history"
)

// writtenLake builds a small lake in dir the way a run does — two
// sessions of UE, cell and anomaly spills, a compaction (so the
// manifest holds add and swap lines) and a third session on another
// cell — and returns its manifest and segment files.
func writtenLake(tb testing.TB, dir string) (manifest []byte, segs [][]byte) {
	tb.Helper()
	cfg := idleCfg()
	cfg.CompactMinSegments = 2
	for round := int64(0); round < 3; round++ {
		l, err := Open(dir, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if round == 2 {
			l.maintain() // merges the first two sessions' segments
		}
		cell := uint16(7 + round/2)
		for i := round * 5; i < round*5+6; i++ {
			spill(l, cell, 0x31, false, i, testBin(i))
			spill(l, cell, 0, true, i, testBin(2*i))
		}
		l.SpillAnomaly(history.Anomaly{Cell: cell, RNTI: 0x31, Kind: "retx_spike", AtMs: float64(round * 100), Value: 0.5, Baseline: 0.1})
		if err := l.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		tb.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "cell-*", "seg-*.seg"))
	if err != nil || len(paths) < 2 {
		tb.Fatalf("segment files = %v (err %v), want at least 2", paths, err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, b)
	}
	return manifest, segs
}

// framePayloads splits a segment file into the payloads of its data
// blocks and of its footer.
func framePayloads(seg []byte) (blocks, footers [][]byte) {
	for off := 0; off+frameHdr <= len(seg); {
		magic := binary.LittleEndian.Uint32(seg[off:])
		plen := int(binary.LittleEndian.Uint32(seg[off+4:]))
		if off+frameHdr+plen > len(seg) {
			break
		}
		payload := seg[off+frameHdr : off+frameHdr+plen]
		switch magic {
		case blockMagic:
			blocks = append(blocks, payload)
		case footerMagic:
			footers = append(footers, payload)
		default:
			return blocks, footers // the trailer
		}
		off += frameHdr + plen
	}
	return blocks, footers
}

// TestOpenIgnoresEscapingManifestName: a manifest line naming a path
// that leaves the lake directory must not be opened: recovery would
// truncate the named file and rewrite it as an empty sealed segment.
func TestOpenIgnoresEscapingManifestName(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "lake")
	victim := filepath.Join(root, "victim.txt")
	want := []byte("not a lake segment: leave me alone\n")
	if err := os.WriteFile(victim, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	line := "add cell-00001/seg-00000004.seg/../../../victim.txt\n"
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, idleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(victim); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("file outside the lake changed: %q (err %v), want %q", got, err, want)
	}
}

// FuzzParseSegName: a name parses only if it is exactly the name of
// the segment it parses to.
func FuzzParseSegName(f *testing.F) {
	for _, name := range []string{
		segName(1, 4), segName(65535, math.MaxUint64),
		"cell-70000/seg-00000001.seg",
		"cell-00001/seg-00000004.seg/../../../victim.txt",
		"cell-1/seg-4.seg", "cell-+0001/seg-00000004.seg",
	} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		cell, seq, err := parseSegName(name)
		if err == nil && segName(cell, seq) != name {
			t.Fatalf("%q parsed to cell %d seq %d, which format as %q", name, cell, seq, segName(cell, seq))
		}
	})
}

// FuzzOpenManifest replays arbitrary manifest bytes: no panic, and
// every name it registers is a segment name.
func FuzzOpenManifest(f *testing.F) {
	manifest, _ := writtenLake(f, f.TempDir())
	f.Add(manifest)
	f.Add(manifest[:len(manifest)/2])
	f.Add([]byte("add cell-00001/seg-00000004.seg/../../../victim.txt\n"))
	f.Add([]byte("swap cell-00001/seg-00000003.seg cell-00001/seg-00000001.seg ;\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, names, err := openManifest(dir)
		if err != nil {
			return
		}
		defer m.close()
		for _, name := range names {
			if _, _, err := parseSegName(name); err != nil {
				t.Fatalf("manifest registered %q: %v", name, err)
			}
		}
	})
}

// FuzzParseBlockPayload runs the block parsers recovery and queries use
// on arbitrary payloads: no panic.
func FuzzParseBlockPayload(f *testing.F) {
	_, segs := writtenLake(f, f.TempDir())
	for _, seg := range segs {
		blocks, _ := framePayloads(seg)
		for _, b := range blocks {
			f.Add(b)
			f.Add(b[:len(b)/2])
		}
	}
	// Headers a corrupt or hostile file can carry: column lengths whose
	// sum wraps around, and rows with no columns to hold them.
	hdr := []byte{kindUE, 0, 0, 1} // kind, cell, rnti, one row
	f.Add(binary.AppendUvarint(binary.AppendUvarint(append(hdr[:4:4], 2), 1<<63), 1<<63))
	f.Add(append(hdr[:4:4], 0, 0))
	f.Fuzz(func(t *testing.T, p []byte) {
		h, err := parseBlockPayload(p, nil)
		if err != nil {
			return
		}
		refFromPayload(&segment{name: "fuzz"}, 0, p)
		if h.kind == kindAnomaly {
			decodeAnomalyBlock(h, func(history.Anomaly) {})
		} else {
			decodeSeriesBlock(h, allCols, &blockRows{})
		}
	})
}

// FuzzDecodeSeriesBlockColumns: for any payload parseBlockPayload
// accepts, decoding a subset of a series block's columns gives the same
// fields in those columns as decoding them all, and zero elsewhere.
func FuzzDecodeSeriesBlockColumns(f *testing.F) {
	_, segs := writtenLake(f, f.TempDir())
	for _, seg := range segs {
		blocks, _ := framePayloads(seg)
		for i, b := range blocks {
			f.Add(b, uint16(1<<(1+i%(binColumns-1))|1<<spareCol))
			f.Add(b[:len(b)/2], uint16(allCols))
		}
	}
	f.Fuzz(func(t *testing.T, p []byte, cols uint16) {
		h, err := parseBlockPayload(p, nil)
		if err != nil || h.kind == kindAnomaly {
			return
		}
		var full, sub blockRows
		if decodeSeriesBlock(h, allCols, &full) != nil {
			return
		}
		if err := decodeSeriesBlock(h, cols, &sub); err != nil {
			t.Fatalf("columns %#x fail where all columns decode: %v", cols, err)
		}
		if !slices.Equal(sub.idx, full.idx) {
			t.Fatalf("bin indices %v decoding columns %#x, %v decoding all", sub.idx, cols, full.idx)
		}
		for i := range full.bins {
			got, want := sub.bins[i], keepCols(full.bins[i], cols)
			if math.Float64bits(got.SpareBits) != math.Float64bits(want.SpareBits) {
				t.Fatalf("row %d spare bits: %v decoding columns %#x, want %v", i, got.SpareBits, cols, want.SpareBits)
			}
			got.SpareBits, want.SpareBits = 0, 0
			if got != want {
				t.Fatalf("row %d: %+v decoding columns %#x, want %+v", i, got, cols, want)
			}
		}
	})
}

// keepCols zeroes the fields of b whose columns cols does not select.
func keepCols(b history.Bin, cols uint16) history.Bin {
	keep := func(c int, v int64) int64 {
		if cols&(1<<c) == 0 {
			return 0
		}
		return v
	}
	return history.Bin{
		DLBits: keep(1, b.DLBits), ULBits: keep(2, b.ULBits), Grants: keep(3, b.Grants),
		Retx: keep(4, b.Retx), PRBs: keep(5, b.PRBs), MCSSum: keep(6, b.MCSSum), MCSCount: keep(7, b.MCSCount),
		MCSMin: int(keep(8, int64(b.MCSMin))), MCSMax: int(keep(9, int64(b.MCSMax))),
		UsedREs: keep(10, b.UsedREs), TotalREs: keep(11, b.TotalREs),
		SpareBits: math.Float64frombits(uint64(keep(spareCol, int64(math.Float64bits(b.SpareBits))))),
	}
}

// FuzzParseFooter decodes arbitrary footer payloads, as loading a
// sealed segment does: no panic.
func FuzzParseFooter(f *testing.F) {
	_, segs := writtenLake(f, f.TempDir())
	for _, seg := range segs {
		_, footers := framePayloads(seg)
		for _, b := range footers {
			f.Add(b)
			f.Add(b[:len(b)/2])
		}
	}
	f.Add(binary.AppendUvarint(nil, 1<<24)) // a count no payload holds
	f.Fuzz(func(t *testing.T, p []byte) {
		parseFooter(&segment{name: "fuzz"}, p)
	})
}
