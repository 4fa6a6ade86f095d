package pucch

import (
	"math/rand"
	"testing"

	"nrscope/internal/phy"
	"nrscope/internal/raceflag"
)

// TestDecodeZeroAlloc: UCI decoding runs once per tracked RNTI per
// uplink slot, so at steady state (warm scratch pool) it must not
// allocate — and neither must the energy gate that precedes it.
func TestDecodeZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(31))
	g := phy.NewGrid(51)
	const rnti = 0x4601
	u := UCI{SR: true, CQI: 11, HasAck: true, Ack: true, AckID: 3}
	if err := Encode(g, u, rnti, cellID); err != nil {
		t.Fatal(err)
	}
	n0 := addNoise(g, 20, rng)
	got, ok := Decode(g, rnti, cellID, n0) // warm the pool
	if !ok || got != u {
		t.Fatalf("warm-up decode: got %+v ok=%v, want %+v", got, ok, u)
	}
	if n := testing.AllocsPerRun(100, func() {
		Decode(g, rnti, cellID, n0)
	}); n != 0 {
		t.Errorf("Decode: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ResourceEnergy(g, rnti)
	}); n != 0 {
		t.Errorf("ResourceEnergy: %.1f allocs/op, want 0", n)
	}
	// The empty-resource skip path (the common case: most tracked RNTIs
	// are silent in a given slot) must also be allocation free.
	if n := testing.AllocsPerRun(100, func() {
		Decode(g, rnti+7, cellID, n0)
	}); n != 0 {
		t.Errorf("Decode (empty resource): %.1f allocs/op, want 0", n)
	}
	var w Workspace
	r := NewResource(rnti, cellID)
	if got, ok := w.Decode(g, &r, n0); !ok || got != u {
		t.Fatalf("workspace decode: got %+v ok=%v, want %+v", got, ok, u)
	}
	if n := testing.AllocsPerRun(100, func() {
		w.Decode(g, &r, n0)
	}); n != 0 {
		t.Errorf("Workspace.Decode: %.1f allocs/op, want 0", n)
	}
}
