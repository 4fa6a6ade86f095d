package core

import (
	"math/rand"
	"testing"

	"nrscope/internal/phy"
	"nrscope/internal/ran"
)

// TestRandomCellConfigsEndToEnd sweeps randomized cell configurations —
// bandwidth/numerology pairs, CORESET widths, TDD patterns, MCS tables,
// candidate counts — and checks the whole chain still works: the scope
// acquires the cell, discovers the UE, and decodes its traffic without
// phantom records. This guards the configuration space the paper's
// tool must handle ("the highly flexible 5G control channel").
func TestRandomCellConfigsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy end-to-end sweep; skipped in -short (race CI)")
	}
	for trial := 0; trial < 6; trial++ {
		cfg, ok := randomCellConfig(t, trial)
		if !ok {
			continue
		}
		prbs, mu := cfg.CarrierPRBs, cfg.Mu

		tb := newTestbed(t, cfg, 25)
		rnti := tb.gnb.AddUE(bulk(cfg), -1)
		discovered := false
		gtData, scopeData := 0, 0
		gtSeen := make(map[[3]int]int)
		for i := 0; i < 1200; i++ {
			out, res := tb.step()
			for _, r := range res.NewUEs {
				if r == rnti {
					discovered = true
				}
			}
			for _, r := range out.GT {
				if !r.Common && r.RNTI == rnti {
					gtData++
					gtSeen[[3]int{r.SlotIdx, boolInt(r.Grant.Downlink), r.Grant.TBS}]++
				}
			}
			for _, rec := range res.Records {
				if !rec.Common && rec.RNTI == rnti {
					scopeData++
					k := [3]int{rec.SlotIdx, boolInt(rec.Downlink), rec.TBS}
					if gtSeen[k] == 0 {
						t.Fatalf("trial %d (%d PRBs %v %s): phantom record %+v",
							trial, prbs, mu, cfg.TDD, rec)
					}
					gtSeen[k]--
				}
			}
		}
		if !tb.scope.CellAcquired() {
			t.Fatalf("trial %d (%d PRBs %v %s): cell never acquired", trial, prbs, mu, cfg.TDD)
		}
		if !discovered {
			t.Fatalf("trial %d (%d PRBs %v %s): UE never discovered", trial, prbs, mu, cfg.TDD)
		}
		if scopeData == 0 || gtData == 0 {
			t.Fatalf("trial %d (%d PRBs %v %s): no data decoded (gt %d)", trial, prbs, mu, cfg.TDD, gtData)
		}
	}
}

// randomCellConfig draws trial's cell configuration; ok is false when
// the drawn band cannot hold the SSB.
func randomCellConfig(t *testing.T, trial int) (cfg ran.CellConfig, ok bool) {
	t.Helper()
	type bwmu struct {
		mhz int
		mu  phy.Numerology
	}
	bands := []bwmu{
		{10, phy.Mu0}, {15, phy.Mu0}, {20, phy.Mu0},
		{10, phy.Mu1}, {15, phy.Mu1}, {20, phy.Mu1}, {40, phy.Mu1},
		{40, phy.Mu2},
	}
	patterns := []string{"D", "DDDSU", "DDSU", "DDDDDDDSUU"}

	rng := rand.New(rand.NewSource(int64(7000 + trial)))
	band := bands[rng.Intn(len(bands))]
	prbs, err := phy.PRBsForBandwidth(band.mhz, band.mu)
	if err != nil {
		t.Fatal(err)
	}
	if prbs < 24 {
		return cfg, false // cannot hold the SSB
	}
	cfg = ran.AmarisoftCell()
	cfg.Name = "random"
	cfg.Mu = band.mu
	cfg.CarrierPRBs = prbs
	cfg.TDD = phy.MustTDDPattern(patterns[rng.Intn(len(patterns))])
	// Random whole-CCE CORESET width within the carrier.
	maxCCEs := prbs / phy.REGsPerCCE
	if maxCCEs > 8 {
		maxCCEs = 8
	}
	ccEs := 4 + rng.Intn(maxCCEs-3)
	cfg.Coreset0.NumPRB = ccEs * phy.REGsPerCCE
	cfg.Setup.CORESET.NumPRB = cfg.Coreset0.NumPRB
	cfg.Setup.NonFallback = rng.Intn(2) == 0
	if !cfg.Setup.NonFallback {
		cfg.Setup.MCSTable = mcsTableQAM64()
	}
	cfg.Seed = int64(500 + trial)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("trial %d: generated invalid config: %v", trial, err)
	}
	return cfg, true
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
