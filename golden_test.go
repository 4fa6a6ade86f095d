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

	"nrscope/internal/bus"
	"nrscope/internal/channel"
	"nrscope/internal/history"
	"nrscope/internal/radio"
	"nrscope/internal/shard"
	"nrscope/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from this run (go test -run Golden -update .)")

const goldenPath = "testdata/golden.json"

// goldenRun pins one seeded scenario's output: the JSONL record stream
// (count and FNV-64a of the bytes a jsonl sink would write, or the sum of
// each line's FNV-64a where several goroutines publish), every downlink
// slot's §5.4.1 spare split, for the sharded scenarios the merged
// history snapshot and the fusion candidates, and for the uplink
// scenario the decoded UCI reports of each receiver leg.
type goldenRun struct {
	Records       int    `json:"records"`
	UCIReports    []int  `json:"uci_reports,omitempty"`
	UCIFNV64      string `json:"uci_fnv64,omitempty"`
	JSONLFNV64    string `json:"jsonl_fnv64,omitempty"`
	JSONLSum64    string `json:"jsonl_sum64,omitempty"`
	SpareSlots    int    `json:"spare_slots,omitempty"`
	SpareFNV64    string `json:"spare_fnv64,omitempty"`
	SnapshotFNV64 string `json:"snapshot_fnv64,omitempty"`
	Handovers     int    `json:"handovers,omitempty"`
	CACandidates  int    `json:"ca_candidates,omitempty"`
	FusionSum64   string `json:"fusion_sum64,omitempty"`
	Description   string `json:"description"`
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
	var line []byte
	spare := fnv.New64a()
	var run goldenRun
	for i := 0; i < slots; i++ {
		res := tb.Step()
		for j := range res.Records {
			line, err = telemetry.AppendJSON(line[:0], &res.Records[j])
			if err != nil {
				t.Fatal(err)
			}
			jsonl.Write(append(line, '\n'))
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

// goldenUplinkSNRs are the uplink scenario's receiver legs: the
// benchmark's bench-top SNR, where nearly every PUCCH block arrives with
// every hard decision right; 8 dB, where some blocks arrive with
// hard-decision errors the Viterbi trellis corrects; and 0 dB, where
// most do, some reports are lost, and noise-only resources pass the
// energy gate and fail the CRC.
var goldenUplinkSNRs = []float64{22, 8, 0}

// goldenUplink is the uplink scenario: the Amarisoft preset at seed 1,
// for 4000 slots, with 16 UEs of mixed mobility. The scope tracks the UEs
// from the downlink; each uplink carrier capture is then received once
// per leg of goldenUplinkSNRs, each leg with its own seeded receiver, and
// every UCI report the scope decodes is folded into one digest in leg
// order.
func goldenUplink(t *testing.T) goldenRun {
	t.Helper()
	const slots = 4000
	tb, err := NewTestbed(AmarisoftPreset, 1)
	if err != nil {
		t.Fatal(err)
	}
	mobility := []string{"static", "pedestrian", "vehicle", "urban"}
	for i := 0; i < 16; i++ {
		tb.AttachUE(UEProfile{Mobility: mobility[i%len(mobility)]})
	}
	rxs := make([]*radio.Receiver, len(goldenUplinkSNRs))
	for i, snr := range goldenUplinkSNRs {
		rxs[i] = radio.NewReceiver(channel.Normal, snr, 0x1301+int64(i)).Reuse(true)
	}
	h := fnv.New64a()
	run := goldenRun{UCIReports: make([]int, len(rxs))}
	for i := 0; i < slots; i++ {
		out := tb.GNB.Step()
		tb.Scope.ProcessSlot(tb.RX.Capture(out.SlotIdx, out.Ref, out.Grid))
		for leg, rx := range rxs {
			ul := tb.Scope.ProcessUplinkSlot(rx.Capture(out.SlotIdx, out.Ref, out.ULGrid))
			run.UCIReports[leg] += len(ul.Reports)
			for _, r := range ul.Reports {
				u := r.UCI
				writeU64(h, uint64(leg), uint64(r.SlotIdx), uint64(r.RNTI), b2u(u.SR), uint64(u.CQI),
					b2u(u.HasAck), b2u(u.Ack), uint64(u.AckID))
			}
		}
	}
	for _, n := range run.UCIReports {
		run.Records += n
	}
	run.UCIFNV64 = fmt.Sprintf("%016x", h.Sum64())
	run.Description = fmt.Sprintf("Amarisoft preset, seed 1, 16 UEs of mixed mobility, %d slots, UCI received at %v dB", slots, goldenUplinkSNRs)
	return run
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// goldenSharded is the sharded scenario: the srsRAN, Mosolab and
// Amarisoft presets at seeds 1..3, stepped in lockstep for 2000 slots and
// fed to a 2-shard supervisor with per-shard fusion that publishes every
// applied record on a bus. srsRAN and Amarisoft share shard 0: two of the
// four srsRAN UEs leave after 0.4 s and two UEs attach to Amarisoft then,
// so shard 0's aggregator has handovers to find, and the CBR UEs on both
// carriers give it carrier-aggregation candidates. The shard workers
// publish concurrently, so the record digest is order-insensitive.
// reversed steps and ingests the cells in the opposite order within each
// slot (the registration, and so the partitioning, is unchanged). It
// returns the "sharded" run (records, snapshot) and the "fused" run
// (handovers and carrier-aggregation candidates at overlap 0.7).
func goldenSharded(t *testing.T, reversed bool) (sharded, fused goldenRun) {
	t.Helper()
	const slots = 2000
	b := bus.New()
	// Only the subscription's runner writes these, and b.Close waits for
	// it before they are read.
	var (
		sum  uint64
		recs int
	)
	_, err := b.Subscribe("golden", bus.Block, bus.SinkFunc(func(batch []telemetry.Record) error {
		for _, rec := range batch {
			sum += recordHash(t, rec)
		}
		recs += len(batch)
		return nil
	}), bus.WithQueueSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	sup := shard.New(shard.Config{
		Shards: 2, Policy: shard.Block, Fusion: true, Bus: b,
		History: history.Config{Depth: 64},
	})
	presets := []Preset{SrsRANPreset, MosolabPreset, AmarisoftPreset}
	tbs := make([]*Testbed, len(presets))
	for i, p := range presets {
		tb, err := NewTestbed(p, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 4; u++ {
			prof := UEProfile{DownlinkMbps: 2}
			if i == 0 && u < 2 {
				prof.SessionSeconds = 0.4
			}
			tb.AttachUE(prof)
		}
		gc := tb.GNB.Config()
		if _, err := sup.AddCell(gc.CellID, gc.Mu); err != nil {
			t.Fatal(err)
		}
		tbs[i] = tb
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	spare := 0
	for slot := 0; slot < slots; slot++ {
		if slot == 800 {
			tbs[2].AttachUE(UEProfile{DownlinkMbps: 2})
			tbs[2].AttachUE(UEProfile{DownlinkMbps: 2})
		}
		for i := range tbs {
			tb := tbs[i]
			if reversed {
				tb = tbs[len(tbs)-1-i]
			}
			res := tb.Step()
			id := tb.GNB.Config().CellID
			for _, rec := range res.Records {
				if err := sup.Ingest(id, rec); err != nil {
					t.Fatal(err)
				}
			}
			if res.Spare != nil {
				spare++
				if err := sup.IngestSpare(id, res.SlotIdx, res.Spare); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(sup.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snapHash := fnv.New64a()
	snapHash.Write(snap)
	desc := fmt.Sprintf("srsRAN, Mosolab, Amarisoft at seeds 1..3, 4 CBR UEs each with 2 moving from srsRAN to Amarisoft, %d slots, 2 shards with fusion", slots)
	sharded = goldenRun{
		Records:       recs,
		JSONLSum64:    fmt.Sprintf("%016x", sum),
		SpareSlots:    spare,
		SnapshotFNV64: fmt.Sprintf("%016x", snapHash.Sum64()),
		Description:   desc,
	}
	hos, cas := sup.Handovers(), sup.CarrierAggregation(0.7)
	var fsum uint64
	for _, h := range hos {
		fsum += jsonHash(t, h)
	}
	for _, c := range cas {
		fsum += jsonHash(t, c)
	}
	fused = goldenRun{
		Records:      recs,
		Handovers:    len(hos),
		CACandidates: len(cas),
		FusionSum64:  fmt.Sprintf("%016x", fsum),
		Description:  desc,
	}
	return sharded, fused
}

// recordHash is the FNV-64a of one record's JSONL line.
func recordHash(t *testing.T, rec telemetry.Record) uint64 {
	data, err := telemetry.AppendJSON(nil, &rec)
	if err != nil {
		t.Error(err)
	}
	h := fnv.New64a()
	h.Write(append(data, '\n'))
	return h.Sum64()
}

// jsonHash is the FNV-64a of a value's JSON encoding.
func jsonHash(t *testing.T, v any) uint64 {
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
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
//
// The sharded scenario runs twice more and must match the same "sharded"
// entry: once with the cells ingested in reverse order within each slot,
// and once with the shard workers and the bus runner on one OS thread
// (GOMAXPROCS 1). The record path's output may not depend on the cell
// order or the schedule. "fused" is not held to this yet: the handover
// matcher sees a shard's cells in ingest order, and the reversed run
// gives fusion digest dd2646c75dd7e1f1, not 4ef5bef22a457718 (ROADMAP
// item 1).
func TestGoldenOutputs(t *testing.T) {
	sharded, fused := goldenSharded(t, false)
	got := map[string]goldenRun{
		"single_cell": goldenSingleCell(t), "sharded": sharded, "fused": fused, "uplink": goldenUplink(t),
	}
	reversed, _ := goldenSharded(t, true)
	prev := runtime.GOMAXPROCS(1)
	serial, _ := goldenSharded(t, false)
	runtime.GOMAXPROCS(prev)
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
		checkGolden(t, name, g, w)
	}
	checkGolden(t, "sharded, cells reversed", reversed, want["sharded"])
	checkGolden(t, "sharded, GOMAXPROCS 1", serial, want["sharded"])
}

// checkGolden compares one run with its golden entry.
func checkGolden(t *testing.T, name string, g, w goldenRun) {
	t.Helper()
	if g.Records != w.Records || g.SpareSlots != w.SpareSlots ||
		g.Handovers != w.Handovers || g.CACandidates != w.CACandidates {
		t.Errorf("%s: %d records, %d spare slots, %d handovers, %d CA candidates; golden %d, %d, %d, %d",
			name, g.Records, g.SpareSlots, g.Handovers, g.CACandidates,
			w.Records, w.SpareSlots, w.Handovers, w.CACandidates)
	}
	if !slices.Equal(g.UCIReports, w.UCIReports) {
		t.Errorf("%s: UCI reports per leg %v, golden %v", name, g.UCIReports, w.UCIReports)
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	for _, d := range []struct{ what, got, want string }{
		{"JSONL digest", g.JSONLFNV64, w.JSONLFNV64},
		{"JSONL sum digest", g.JSONLSum64, w.JSONLSum64},
		{"spare-split digest", g.SpareFNV64, w.SpareFNV64},
		{"snapshot digest", g.SnapshotFNV64, w.SnapshotFNV64},
		{"fusion digest", g.FusionSum64, w.FusionSum64},
		{"UCI digest", g.UCIFNV64, w.UCIFNV64},
	} {
		if d.got != d.want {
			t.Errorf("%s: %s %s, golden %s", name, d.what, d.got, d.want)
		}
	}
}
