package eval

import (
	"testing"

	"nrscope/internal/channel"
	"nrscope/internal/core"
	"nrscope/internal/ran"
)

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(SessionConfig{Cell: ran.AmarisoftCell(), Slots: 0}); err == nil {
		t.Error("zero-slot session accepted")
	}
	bad := ran.AmarisoftCell()
	bad.CarrierPRBs = 1
	if _, err := Run(SessionConfig{Cell: bad, Slots: 10}); err == nil {
		t.Error("invalid cell accepted")
	}
}

func TestAllWorkloadsDriveTraffic(t *testing.T) {
	for _, w := range []Workload{WorkloadVideo, WorkloadBulk, WorkloadFile, WorkloadLight} {
		res, err := Run(SessionConfig{
			Cell:       ran.AmarisoftCell(),
			ScopeSNRdB: 25,
			UEs:        []UESpec{{Model: channel.Normal, DL: w, SessionSlots: -1}},
			Slots:      1500,
			Seed:       77 + int64(w),
		})
		if err != nil {
			t.Fatal(err)
		}
		dlRecords := 0
		for _, rec := range res.Records {
			if rec.Downlink && !rec.Common {
				dlRecords++
			}
		}
		if dlRecords == 0 {
			t.Errorf("workload %d produced no downlink records", w)
		}
	}
	// WorkloadNone with uplink only.
	res, err := Run(SessionConfig{
		Cell:       ran.AmarisoftCell(),
		ScopeSNRdB: 25,
		UEs:        []UESpec{{Model: channel.Normal, DL: WorkloadNone, ULbps: 500e3, SessionSlots: -1}},
		Slots:      1500,
		Seed:       99,
	})
	if err != nil {
		t.Fatal(err)
	}
	ul := 0
	for _, rec := range res.Records {
		if !rec.Downlink && !rec.Common {
			ul++
		}
	}
	if ul == 0 {
		t.Error("UL-only UE produced no uplink records")
	}
}

func TestSessionWithPopulation(t *testing.T) {
	pop := ran.DefaultPopulation()
	pop.ArrivalsPerSecond = 6
	pop.MedianSessionSeconds = 1
	cell := ran.AmarisoftCell()
	res, err := Run(SessionConfig{
		Cell:       cell,
		ScopeSNRdB: 25,
		ScopeOpts:  []core.Option{core.WithIdleHorizon(800 * cell.TTI())},
		Population: &pop,
		Slots:      8000, // 4 s
		Seed:       1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Discovered) < 3 {
		t.Errorf("only %d UEs discovered under churn", len(res.Discovered))
	}
	// Some sessions should have aged out by the end.
	if len(res.Scope.DepartedUEs()) == 0 {
		t.Error("no sessions aged out")
	}
}

func TestDMRSGateDoesNotChangeFindings(t *testing.T) {
	run := func(gate bool) int {
		res, err := Run(SessionConfig{
			Cell:       ran.AmarisoftCell(),
			ScopeSNRdB: 25,
			ScopeOpts:  []core.Option{core.WithDMRSGate(gate)},
			UEs:        ueMix(2, UESpec{Model: channel.Normal, DL: WorkloadVideo, SessionSlots: -1}),
			Slots:      2000,
			Seed:       555,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, rec := range res.Records {
			if !rec.Common {
				n++
			}
		}
		return n
	}
	gated := run(true)
	brute := run(false)
	if gated == 0 {
		t.Fatal("no records")
	}
	// The gate is an optimisation: at high SNR the two must agree.
	if gated != brute {
		t.Errorf("gated found %d records, brute force %d", gated, brute)
	}
}

func TestMeanMCSPerUEAgreement(t *testing.T) {
	res := quickSession(t, 2)
	gt, scope := res.MeanMCSPerUE()
	if len(gt) != 2 || len(scope) != 2 {
		t.Fatalf("per-UE MCS: %d gt, %d scope", len(gt), len(scope))
	}
	if r := RSquared(gt, scope); r < 0.98 {
		t.Errorf("MCS R² = %.4f at 25 dB, want near 1", r)
	}
}
