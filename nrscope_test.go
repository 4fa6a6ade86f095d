package nrscope

import (
	"testing"
	"time"
)

func TestTestbedQuickstartFlow(t *testing.T) {
	tb, err := NewTestbed(AmarisoftPreset, 7)
	if err != nil {
		t.Fatal(err)
	}
	rnti := tb.AttachUE(UEProfile{})
	var discovered bool
	var records int
	tb.RunFor(time.Second, func(res *SlotResult) {
		for _, r := range res.NewUEs {
			if r == rnti {
				discovered = true
			}
		}
		records += len(res.Records)
	})
	if !tb.Scope.CellAcquired() {
		t.Fatal("cell not acquired within 1 s")
	}
	if !discovered {
		t.Fatal("UE not discovered within 1 s")
	}
	if records == 0 {
		t.Fatal("no telemetry records")
	}
	if rate := tb.Scope.Bitrate(rnti, true, tb.GNB.SlotIdx()); rate <= 0 {
		t.Errorf("downlink bitrate estimate %.0f, want > 0", rate)
	}
}

func TestAllPresetsConstruct(t *testing.T) {
	for _, p := range []Preset{SrsRANPreset, MosolabPreset, AmarisoftPreset, TMobile1Preset, TMobile2Preset} {
		tb, err := NewTestbed(p, 3)
		if err != nil {
			t.Fatalf("preset %d: %v", int(p), err)
		}
		if tb.TTI() <= 0 {
			t.Errorf("preset %d: bad TTI", int(p))
		}
	}
	if _, err := NewTestbed(Preset(99), 1); err == nil {
		t.Error("bogus preset accepted")
	}
}

func TestUEProfileMobilityMapping(t *testing.T) {
	for _, m := range []string{"", "static", "awgn", "pedestrian", "vehicle", "moving", "urban", "blocked", "???"} {
		_ = UEProfile{Mobility: m}.model() // must not panic; default applies
	}
}

func TestSessionBoundedUEDeparts(t *testing.T) {
	cell, err := AmarisoftPreset.cell()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(AmarisoftPreset, 11, WithIdleHorizon(600*cell.TTI()))
	if err != nil {
		t.Fatal(err)
	}
	tb.AttachUE(UEProfile{SessionSeconds: 0.5})
	tb.RunFor(2*time.Second, nil)
	if got := len(tb.Scope.DepartedUEs()); got != 1 {
		t.Errorf("departed sessions = %d, want 1", got)
	}
}
