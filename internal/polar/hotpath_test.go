package polar

import (
	"math/rand"
	"testing"

	"nrscope/internal/raceflag"
)

// TestDecodeIntoMatchesDecode: the buffer-reusing variant must return
// the same information bits as Decode, with and without a warm dst.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var buf []uint8
	for _, ke := range [][2]int{{54, 108}, {67, 108}, {94, 216}, {64, 1728}} {
		c, err := NewCode(ke[0], ke[1])
		if err != nil {
			t.Fatal(err)
		}
		info := randomBits(rng, c.K)
		llr := bpskLLR(c.Encode(info), 8)
		want := c.Decode(llr)
		got := c.DecodeInto(buf, llr)
		buf = got[:0]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("(%d,%d): bit %d differs", ke[0], ke[1], i)
			}
		}
	}
}

// TestDecodeIntoZeroAllocWarm: with the scratch pool warm and a reused
// dst, a decode performs no heap allocation.
func TestDecodeIntoZeroAllocWarm(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(22))
	c, err := NewCode(67, 432)
	if err != nil {
		t.Fatal(err)
	}
	llr := bpskLLR(c.Encode(randomBits(rng, c.K)), 8)
	dst := c.Decode(llr) // warm the pool and size dst
	if n := testing.AllocsPerRun(100, func() {
		dst = c.DecodeInto(dst, llr)
	}); n != 0 {
		t.Errorf("DecodeInto: %.1f allocs/op, want 0", n)
	}
}

// TestFeasibleMatchesNewCode: Feasible must predict NewCode's outcome
// exactly — the blind decoder trusts it to classify candidate positions
// as untransmittable without constructing a code.
func TestFeasibleMatchesNewCode(t *testing.T) {
	es := []int{12, 24, 54, 108, 216, 432, 864, 1728}
	for _, e := range es {
		for k := 0; k <= 620; k++ {
			_, err := NewCode(k, e)
			if got, want := Feasible(k, e), err == nil; got != want {
				t.Fatalf("Feasible(%d, %d) = %v, NewCode err = %v", k, e, got, err)
			}
		}
	}
	if Feasible(10, 0) {
		t.Error("Feasible(10, 0) = true")
	}
}

// TestDecodeWithSharedWorkspace: one Workspace decoding codes of every
// mother length in turn — sized for MaxN, so serving the shorter ones
// with room to spare — must return what Decode returns in an exactly
// sized pooled Workspace. The small-integer LLRs make exact
// zeros and g cancellations common, so the rate-1 scDecode fallback
// runs over the grown buffers too.
func TestDecodeWithSharedWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ws Workspace
	var got []uint8
	shapes := [][2]int{{62, 432}, {69, 108}, {54, 216}, {30, 54}, {64, 1728}, {43, 108}}
	for trial := 0; trial < 300; trial++ {
		ke := shapes[trial%len(shapes)]
		c, err := NewCode(ke[0], ke[1])
		if err != nil {
			t.Fatal(err)
		}
		llr := bpskLLR(c.Encode(randomBits(rng, c.K)), 2)
		for i := range llr {
			if rng.Intn(3) == 0 {
				llr[i] = float64(rng.Intn(5) - 2)
			}
		}
		want := c.Decode(llr)
		got = c.DecodeWith(&ws, got, llr)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%d,%d): bit %d differs from Decode", trial, ke[0], ke[1], i)
			}
		}
	}
	if raceflag.Enabled {
		return // allocation counts differ under the race detector
	}
	c, err := NewCode(69, 108)
	if err != nil {
		t.Fatal(err)
	}
	llr := bpskLLR(c.Encode(randomBits(rng, c.K)), 8)
	if n := testing.AllocsPerRun(100, func() {
		got = c.DecodeWith(&ws, got, llr)
	}); n != 0 {
		t.Errorf("DecodeWith in a grown Workspace: %.1f allocs/op, want 0", n)
	}
}
