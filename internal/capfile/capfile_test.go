package capfile

import (
	"bytes"
	"io"
	"math"
	"testing"

	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/phy"
	"nrscope/internal/radio"
	"nrscope/internal/ran"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hdr := Header{CellID: 500, Mu: phy.Mu1, NumPRB: 51}
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	g := phy.NewGrid(51)
	g.Set(3, 100, complex(0.5, -0.25))
	caps := []*radio.Capture{
		{SlotIdx: 0, Ref: phy.SlotRef{SFN: 0, Slot: 0}, N0: 0.01, SNRdB: 20, Grid: g},
		{SlotIdx: 1, Ref: phy.SlotRef{SFN: 0, Slot: 1}, N0: 0.02, SNRdB: 17}, // uplink slot
		{SlotIdx: 2, Ref: phy.SlotRef{SFN: 0, Slot: 2}, N0: 0.01, SNRdB: 20, Grid: g},
	}
	for _, c := range caps {
		if err := w.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Slots() != 3 {
		t.Errorf("Slots = %d", w.Slots())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header() != hdr {
		t.Errorf("header %+v, want %+v", r.Header(), hdr)
	}
	for i, want := range caps {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.SlotIdx != want.SlotIdx || got.Ref != want.Ref || got.N0 != want.N0 || got.SNRdB != want.SNRdB {
			t.Errorf("record %d meta: %+v", i, got)
		}
		if (got.Grid == nil) != (want.Grid == nil) {
			t.Fatalf("record %d grid presence mismatch", i)
		}
		if got.Grid != nil {
			v := got.Grid.At(3, 100)
			if math.Abs(real(v)-0.5) > 1e-6 || math.Abs(imag(v)+0.25) > 1e-6 {
				t.Errorf("record %d sample %v", i, v)
			}
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestHeaderValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Header{Mu: phy.Numerology(7), NumPRB: 51}); err == nil {
		t.Error("bad numerology accepted")
	}
	if _, err := NewWriter(&buf, Header{Mu: phy.Mu1, NumPRB: 0}); err == nil {
		t.Error("zero PRBs accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("JUNKDATA???"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("NR"))); err == nil {
		t.Error("truncated header accepted")
	}
	// The reader holds a header to the writer's 1..275 PRB bound: a
	// 65535-PRB header would make one Next allocate ~264 MB.
	for _, prbs := range []uint16{276, 65535} {
		head := []byte{'N', 'R', 'S', 'C', version, 0, 1, 0, byte(phy.Mu1), byte(prbs), byte(prbs >> 8)}
		if _, err := NewReader(bytes.NewReader(head)); err == nil {
			t.Errorf("%d-PRB header accepted", prbs)
		}
	}
}

// FuzzReader feeds arbitrary bytes to the reader, seeded with a
// two-slot stream (one downlink grid, one uplink slot without a grid).
// Whatever the input, NewReader and Next return a capture or an error,
// without a panic and without allocating past one 275-PRB grid.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{CellID: 7, Mu: phy.Mu1, NumPRB: 24})
	if err != nil {
		f.Fatal(err)
	}
	g := phy.NewGrid(24)
	g.Set(2, 40, complex(0.5, -0.25))
	for _, c := range []*radio.Capture{
		{SlotIdx: 0, Ref: phy.SlotRef{SFN: 0, Slot: 0}, N0: 0.01, SNRdB: 20, Grid: g},
		{SlotIdx: 1, Ref: phy.SlotRef{SFN: 0, Slot: 1}, N0: 0.02, SNRdB: 17},
	} {
		if err := w.Append(c); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:11])
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if hdr := r.Header(); hdr.NumPRB < 1 || hdr.NumPRB > maxPRB || !hdr.Mu.Valid() {
			t.Fatalf("reader accepted header %+v", hdr)
		}
		for i := 0; i < 16; i++ {
			c, err := r.Next()
			if err != nil {
				return
			}
			if c.Grid != nil && c.Grid.NumPRB != r.Header().NumPRB {
				t.Fatalf("grid of %d PRBs in a %d-PRB stream", c.Grid.NumPRB, r.Header().NumPRB)
			}
		}
	})
}

func TestWriterRejectsMismatchedGrid(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{CellID: 1, Mu: phy.Mu1, NumPRB: 51})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&radio.Capture{Grid: phy.NewGrid(24)}); err == nil {
		t.Error("mismatched grid width accepted")
	}
	_ = w.Close()
	if err := w.Append(&radio.Capture{}); err == nil {
		t.Error("append after close accepted")
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{CellID: 1, Mu: phy.Mu1, NumPRB: 24})
	_ = w.Append(&radio.Capture{SlotIdx: 0, Grid: phy.NewGrid(24)})
	_ = w.Close()
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-100]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated grid read: %v", err)
	}
}

// TestOfflineReplayMatchesLive records a short session and checks the
// scope produces identical telemetry from the replay — the offline
// post-processing workflow.
func TestOfflineReplayMatchesLive(t *testing.T) {
	cfg := ran.AmarisoftCell()
	cfg.Seed = 91
	gnb, err := ran.NewGNB(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	gnb.AddUE(nil, -1)
	rx := radio.NewReceiver(channel.Normal, 25, 9)

	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{CellID: cfg.CellID, Mu: cfg.Mu, NumPRB: cfg.CarrierPRBs})
	if err != nil {
		t.Fatal(err)
	}
	live := core.New(cfg.CellID)
	liveRecords := 0
	const slots = 600
	for i := 0; i < slots; i++ {
		out := gnb.Step()
		cap := rx.Capture(out.SlotIdx, out.Ref, out.Grid)
		if err := w.Append(cap); err != nil {
			t.Fatal(err)
		}
		liveRecords += len(live.ProcessSlot(cap).Records)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if liveRecords == 0 {
		t.Fatal("live pass produced nothing")
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay := core.New(r.Header().CellID)
	replayRecords := 0
	for {
		cap, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		replayRecords += len(replay.ProcessSlot(cap).Records)
	}
	// complex64 quantisation is far below the noise floor; the decoded
	// telemetry must match exactly.
	if replayRecords != liveRecords {
		t.Errorf("replay found %d records, live %d", replayRecords, liveRecords)
	}
}
