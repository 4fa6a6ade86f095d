package phy

import "fmt"

// Grid is one slot's resource grid: SymbolsPerSlot OFDM symbols by
// 12·NumPRB subcarriers of complex modulation symbols. It is the unit of
// data the simulated radio hands to NR-Scope (one "slot data" block in
// the paper's Fig. 4).
type Grid struct {
	NumPRB int
	re     []complex128 // row-major: symbol * width + subcarrier
}

// NewGrid allocates an all-zero grid for numPRB resource blocks.
func NewGrid(numPRB int) *Grid {
	if numPRB <= 0 {
		panic(fmt.Sprintf("phy: NewGrid(%d)", numPRB))
	}
	return &Grid{
		NumPRB: numPRB,
		re:     make([]complex128, SymbolsPerSlot*numPRB*SubcarriersPerPRB),
	}
}

// Width returns the number of subcarriers.
func (g *Grid) Width() int { return g.NumPRB * SubcarriersPerPRB }

// At returns the resource element at (symbol, subcarrier).
func (g *Grid) At(symbol, subcarrier int) complex128 {
	return g.re[symbol*g.Width()+subcarrier]
}

// Set writes the resource element at (symbol, subcarrier).
func (g *Grid) Set(symbol, subcarrier int, v complex128) {
	g.re[symbol*g.Width()+subcarrier] = v
}

// Clone returns a deep copy. Kept: tests snapshot a transmitted grid
// with it before a receiver or decoder touches the original.
func (g *Grid) Clone() *Grid {
	out := &Grid{NumPRB: g.NumPRB, re: make([]complex128, len(g.re))}
	copy(out.re, g.re)
	return out
}

// Samples exposes the raw RE array for channel impairment application.
// Mutating it mutates the grid.
func (g *Grid) Samples() []complex128 { return g.re }

// Clear zeroes the grid in place for reuse.
func (g *Grid) Clear() {
	for i := range g.re {
		g.re[i] = 0
	}
}

// RE addresses a single resource element.
type RE struct {
	Symbol     int
	Subcarrier int
}
