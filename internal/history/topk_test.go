package history_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"nrscope/internal/history"
	"nrscope/internal/lake"
	"nrscope/internal/mcs"
	"nrscope/internal/telemetry"
)

var topkMetrics = []string{"dl_bits", "ul_bits", "bits", "grants", "retx", "retx_rate", "prbs", "spare_bits"}

type ueID struct{ cell, rnti uint16 }

// churnFeed drives a two-cell store with more RNTIs than MaxUEs, so UEs
// are evicted by LRU and come back under the same C-RNTI, plus spare
// splits over the tracked ones. It remembers every UE it fed.
type churnFeed struct {
	rng  *rand.Rand
	tms  float64
	seen map[ueID]bool
}

func newChurnFeed(seed int64) *churnFeed {
	return &churnFeed{rng: rand.New(rand.NewSource(seed)), seen: make(map[ueID]bool)}
}

func churnStore(t testing.TB, seed int64, lk history.Lake) *history.Store {
	t.Helper()
	horizon := time.Duration(0)
	if seed%2 == 0 {
		horizon = 700 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(seed))
	st := history.New(history.Config{
		BinWidth: 100 * time.Millisecond, Depth: 3 + rng.Intn(5),
		MaxUEs: 5 + rng.Intn(6), IdleHorizon: horizon,
	})
	for cell := uint16(1); cell <= 2; cell++ {
		if err := st.AddCell(cell, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st.AttachLake(lk)
	return st
}

func (f *churnFeed) step(st *history.Store) {
	r := f.rng
	f.tms += r.ExpFloat64() * 4
	id := ueID{uint16(1 + r.Intn(2)), uint16(0x100 + r.Intn(16))}
	f.seen[id] = true
	st.Ingest(id.cell, telemetry.Record{
		TMs: f.tms, RNTI: id.rnti, Downlink: r.Intn(3) > 0, TBS: r.Intn(6000),
		MCS: r.Intn(28), NumPRB: 1 + r.Intn(50), IsRetx: r.Intn(6) == 0,
	})
	if r.Intn(8) == 0 {
		e, _ := mcs.TableQAM64.Lookup(r.Intn(28))
		ues := []telemetry.SpareUE{
			{RNTI: uint16(0x100 + r.Intn(16)), UELinkState: telemetry.UELinkState{Entry: e, Layers: 1 + r.Intn(2)}},
			{RNTI: uint16(0x100 + r.Intn(16)), UELinkState: telemetry.UELinkState{Entry: e, Layers: 1}},
		}
		sp := telemetry.ComputeSpare(5000+r.Intn(5000), r.Intn(5000), ues)
		st.IngestSpare(id.cell, int(f.tms), &sp)
	}
}

// oracleRanks ranks every UE the feed ever saw by per-UE QueryWindow
// sums, fully sorted by TopK's total order. A UE is ranked if it is
// tracked or has a bin in the window, which is TopK's rule.
func oracleRanks(t *testing.T, st *history.Store, seen map[ueID]bool, metric string, window time.Duration) []history.UERank {
	t.Helper()
	tracked := make(map[ueID]bool)
	for cell := uint16(1); cell <= 2; cell++ {
		for _, u := range st.UEs(cell) {
			tracked[ueID{u.Cell, u.RNTI}] = true
		}
	}
	var out []history.UERank
	for id := range seen {
		bins, err := st.QueryWindow(id.cell, id.rnti, window, 1)
		if err != nil {
			t.Fatal(err)
		}
		var dl, ul, grants, retx, prbs int64
		var spare float64
		nonEmpty := false
		for _, b := range bins {
			dl, ul, grants, retx, prbs = dl+b.DLBits, ul+b.ULBits, grants+b.Grants, retx+b.Retx, prbs+b.PRBs
			spare += b.SpareBits
			nonEmpty = nonEmpty || b.Grants > 0 || b.SpareBits != 0
		}
		if !tracked[id] && !nonEmpty {
			continue
		}
		v := map[string]float64{
			"dl_bits": float64(dl), "ul_bits": float64(ul), "bits": float64(dl + ul),
			"grants": float64(grants), "retx": float64(retx), "prbs": float64(prbs), "spare_bits": spare,
		}
		if grants > 0 {
			v["retx_rate"] = float64(retx) / float64(grants)
		}
		out = append(out, history.UERank{Cell: id.cell, RNTI: id.rnti, Value: v[metric]})
	}
	slices.SortFunc(out, func(a, b history.UERank) int {
		return cmp.Or(cmp.Compare(b.Value, a.Value), cmp.Compare(a.Cell, b.Cell), cmp.Compare(a.RNTI, b.RNTI))
	})
	return out
}

// checkTopK holds TopK to the oracle for every metric, three windows
// and k in {0, 1, 10, n+5}. Integer metrics must match exactly;
// spare_bits sums floats in another order, so its values may differ by
// 1e-9 relative, and near-equal UEs may swap places.
func checkTopK(t *testing.T, st *history.Store, seen map[ueID]bool) {
	t.Helper()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for _, metric := range topkMetrics {
		for _, window := range []time.Duration{300 * time.Millisecond, 2 * time.Second, time.Hour} {
			want := oracleRanks(t, st, seen, metric, window)
			byKey := make(map[ueID]float64, len(want))
			for _, r := range want {
				byKey[ueID{r.Cell, r.RNTI}] = r.Value
			}
			for _, k := range []int{0, 1, 10, len(want) + 5} {
				got, err := st.TopK(metric, window, k)
				if err != nil {
					t.Fatal(err)
				}
				w := want
				if k > 0 && k < len(w) {
					w = w[:k]
				}
				if len(got) != len(w) {
					t.Fatalf("%s window %v k %d: %d ranks, oracle %d\n got %+v\nwant %+v", metric, window, k, len(got), len(w), got, w)
				}
				for i := range got {
					ok := got[i] == w[i]
					if metric == "spare_bits" {
						v, known := byKey[ueID{got[i].Cell, got[i].RNTI}]
						ok = known && near(got[i].Value, w[i].Value) && near(got[i].Value, v)
					}
					if !ok {
						t.Fatalf("%s window %v k %d rank %d: got %+v, oracle %+v", metric, window, k, i, got[i], w[i])
					}
				}
			}
		}
	}
}

// TestTopKMatchesQueryOracle feeds churning stores over a fake lake and
// a real one, and holds TopK to per-UE Query sums along the way.
func TestTopKMatchesQueryOracle(t *testing.T) {
	lakes := map[string]func(t *testing.T) history.Lake{
		"fake": func(*testing.T) history.Lake { return history.NewFakeLake() },
		"lake": func(t *testing.T) history.Lake {
			lk, err := lake.Open(t.TempDir(), lake.Config{
				BinWidth: 100 * time.Millisecond, SegmentBytes: 4096,
				FlushInterval: time.Millisecond, CompactMinSegments: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = lk.Close() })
			return lk
		},
	}
	for name, open := range lakes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				st := churnStore(t, seed, open(t))
				f := newChurnFeed(seed)
				for i := 1; i <= 2400; i++ {
					f.step(st)
					if i%600 == 0 {
						checkTopK(t, st, f.seen)
					}
				}
			})
		}
	}
}

// TestTopKDuringIngest ranks while another goroutine ingests into a
// store whose lake flushes underneath and compacts the small segments
// three earlier sessions sealed: no panic, no lake drop, and once
// ingest stops TopK equals the oracle.
func TestTopKDuringIngest(t *testing.T) {
	dir := t.TempDir()
	cfg := lake.Config{BinWidth: 100 * time.Millisecond, FlushInterval: time.Millisecond, CompactMinSegments: 2}
	f := newChurnFeed(2)
	for session := 0; session < 3; session++ { // each Close seals small segments
		lk, err := lake.Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := churnStore(t, 2, lk)
		for i := 0; i < 400; i++ {
			f.step(st)
		}
		if err := lk.Close(); err != nil {
			t.Fatal(err)
		}
	}
	lk, err := lake.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lk.Close()
	st := churnStore(t, 2, lk)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000 || lk.Stats().Compactions == 0 && i < 1_000_000; i++ {
			f.step(st)
		}
	}()
	defer func() { <-done }()
	rankings := 0
	for running := true; running; rankings++ {
		select {
		case <-done:
			running = false
		default:
		}
		window := time.Duration(1+rankings%30) * 100 * time.Millisecond
		if _, err := st.TopK(topkMetrics[rankings%len(topkMetrics)], window, 1+rankings%12); err != nil {
			t.Fatal(err)
		}
	}
	if s := lk.Stats(); s.DroppedEntries != 0 || s.Compactions == 0 {
		t.Fatalf("lake dropped %d entries, ran %d compactions", s.DroppedEntries, s.Compactions)
	}
	t.Logf("%d rankings during ingest, %d compactions", rankings, lk.Stats().Compactions)
	checkTopK(t, st, f.seen)
}

// TestUEListMatchesMap feeds churning stores, evicting by the LRU cap
// alone (odd seeds) and by the idle horizon too (even seeds: a second of
// silence every 300 records idles out all but the next UE), and holds
// the dense series list to the lookup map after every record.
func TestUEListMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st := churnStore(t, seed, history.NewFakeLake())
			maxUEs := st.Snapshot().MaxUEs
			f := newChurnFeed(seed)
			full, shrank := false, false
			prev := 0
			for i := 0; i < 2400; i++ {
				if i%300 == 299 {
					f.tms += 1000
				}
				f.step(st)
				if err := history.CheckUEList(st); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				n := st.TrackedUEs()
				full = full || n == maxUEs
				shrank = shrank || n < prev
				prev = n
			}
			if !full || seed%2 == 0 && !shrank {
				t.Fatalf("the feed never filled the store (%v) or, with an idle horizon, never shrank it (%v)", full, shrank)
			}
		})
	}
}
