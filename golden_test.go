package nrscope

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"nrscope/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from this run (go test -run Golden -update .)")

const goldenPath = "testdata/golden.json"

// goldenRun pins one seeded scenario's output: the JSONL record stream
// (count and FNV-64a of the bytes a jsonl sink would write) and every
// downlink slot's §5.4.1 spare split.
type goldenRun struct {
	Records     int    `json:"records"`
	JSONLFNV64  string `json:"jsonl_fnv64"`
	SpareSlots  int    `json:"spare_slots"`
	SpareFNV64  string `json:"spare_fnv64"`
	Description string `json:"description"`
}

// goldenSingleCell is the single-cell scenario: the Amarisoft preset at
// seed 1, for 6000 slots (3 s of air time), with 16 UEs whose channels
// cycle through static, pedestrian, vehicle and urban. The faded UEs get
// DCIs at higher aggregation levels, so one slot's UE DCIs span several
// levels and their emission order is exercised.
func goldenSingleCell(t *testing.T) goldenRun {
	t.Helper()
	const slots = 6000
	tb, err := NewTestbed(AmarisoftPreset, 1)
	if err != nil {
		t.Fatal(err)
	}
	mobility := []string{"static", "pedestrian", "vehicle", "urban"}
	for i := 0; i < 16; i++ {
		tb.AttachUE(UEProfile{Mobility: mobility[i%len(mobility)]})
	}
	jsonl := fnv.New64a()
	enc := json.NewEncoder(jsonl)
	spare := fnv.New64a()
	var run goldenRun
	for i := 0; i < slots; i++ {
		res := tb.Step()
		for _, rec := range res.Records {
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		run.Records += len(res.Records)
		if res.Spare == nil {
			continue
		}
		run.SpareSlots++
		writeU64(spare, uint64(res.SlotIdx), uint64(res.Spare.UsedREs), uint64(res.Spare.TotalREs))
		split := spareSplit(res.Spare)
		slices.SortFunc(split, func(a, b spareShare) int { return int(a.rnti) - int(b.rnti) })
		writeU64(spare, uint64(len(split)))
		for _, u := range split {
			writeU64(spare, uint64(u.rnti), math.Float64bits(u.bits))
		}
	}
	run.JSONLFNV64 = fmt.Sprintf("%016x", jsonl.Sum64())
	run.SpareFNV64 = fmt.Sprintf("%016x", spare.Sum64())
	run.Description = fmt.Sprintf("Amarisoft preset, seed 1, 16 UEs of mixed mobility, %d slots", slots)
	return run
}

// spareShare is one UE's spare bits in a slot's split.
type spareShare struct {
	rnti uint16
	bits float64
}

// spareSplit lists a slot's per-UE spare bits, in any order.
func spareSplit(sp *telemetry.SpareCapacity) []spareShare {
	out := make([]spareShare, len(sp.UEs))
	for i, u := range sp.UEs {
		out[i] = spareShare{u.RNTI, sp.Bits(i)}
	}
	return out
}

func writeU64(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// TestGoldenOutputs holds the decoder's output to the digests recorded
// in testdata/golden.json: a change that alters a single record or spare
// value fails it, and one that means to must rewrite the file with
// -update and say why. Go may fuse x*y+z into an FMA on arm64, ppc64le
// and s390x, so the digests are checked on amd64 only; other
// architectures check the counts.
func TestGoldenOutputs(t *testing.T) {
	got := map[string]goldenRun{"single_cell": goldenSingleCell(t)}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		if g.Records != w.Records || g.SpareSlots != w.SpareSlots {
			t.Errorf("%s: %d records, %d spare slots; golden %d, %d", name, g.Records, g.SpareSlots, w.Records, w.SpareSlots)
		}
		if runtime.GOARCH != "amd64" {
			continue
		}
		if g.JSONLFNV64 != w.JSONLFNV64 {
			t.Errorf("%s: JSONL digest %s, golden %s", name, g.JSONLFNV64, w.JSONLFNV64)
		}
		if g.SpareFNV64 != w.SpareFNV64 {
			t.Errorf("%s: spare-split digest %s, golden %s", name, g.SpareFNV64, w.SpareFNV64)
		}
	}
}
