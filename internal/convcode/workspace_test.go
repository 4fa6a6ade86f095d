package convcode

import (
	"math/rand"
	"testing"

	"nrscope/internal/raceflag"
)

// TestWorkspaceMatchesPackageDecode: a reused Workspace must produce the
// same bits as a fresh one across block sizes, including after
// shrinking (stale survivor history must not leak between calls).
func TestWorkspaceMatchesPackageDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var w Workspace
	for _, k := range []int{40, 12, 100, 7, 56, 40} {
		info := make([]uint8, k)
		for i := range info {
			info[i] = uint8(rng.Intn(2))
		}
		coded := Encode(info)
		llr := make([]float64, len(coded))
		for i, b := range coded {
			llr[i] = (1 - 2*float64(b)) * (2 + rng.Float64()) // clean channel
		}
		got := w.Decode(llr, k)
		want := new(Workspace).Decode(llr, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: bit %d reused %d != fresh %d", k, i, got[i], want[i])
			}
		}
		// Rate-matched path, both repetition and puncturing.
		for _, e := range []int{len(coded) * 2, len(coded) * 2 / 3} {
			ch, err := RateMatch(coded, e)
			if err != nil {
				t.Fatalf("RateMatch: %v", err)
			}
			chLLR := make([]float64, e)
			for i, b := range ch {
				chLLR[i] = 1 - 2*float64(b)
			}
			got := w.RecoverAndDecode(chLLR, k)
			want := new(Workspace).RecoverAndDecode(chLLR, k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d e=%d: bit %d reused %d != fresh %d", k, e, i, got[i], want[i])
				}
			}
			for i := range info {
				if got[i] != info[i] {
					t.Fatalf("k=%d e=%d: bit %d decoded %d != encoded %d", k, e, i, got[i], info[i])
				}
			}
		}
	}
}

// TestWorkspaceZeroAlloc: once grown, Decode and RecoverAndDecode must
// not allocate (they run per PDSCH/PUCCH candidate per slot).
func TestWorkspaceZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(12))
	const k = 80
	info := make([]uint8, k)
	for i := range info {
		info[i] = uint8(rng.Intn(2))
	}
	ch, err := EncodeAndMatch(info, 2*CodedLen(k))
	if err != nil {
		t.Fatal(err)
	}
	llr := make([]float64, len(ch))
	for i, b := range ch {
		llr[i] = 1 - 2*float64(b)
	}
	var w Workspace
	w.RecoverAndDecode(llr, k) // grow buffers
	if n := testing.AllocsPerRun(100, func() {
		w.RecoverAndDecode(llr, k)
	}); n != 0 {
		t.Errorf("Workspace.RecoverAndDecode: %.1f allocs/op, want 0", n)
	}
}
