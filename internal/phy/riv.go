package phy

import "fmt"

// Resource allocation type 1 RIV coding (TS 38.214 §5.1.2.2.2).
// A contiguous allocation of L PRBs starting at PRB S within a bandwidth
// part of N PRBs is encoded as a single resource indication value.

// EncodeRIV encodes (start, length) over a BWP of n PRBs.
func EncodeRIV(n, start, length int) (uint32, error) {
	if length < 1 || start < 0 || start+length > n {
		return 0, fmt.Errorf("phy: RIV allocation start=%d len=%d exceeds BWP of %d PRBs", start, length, n)
	}
	if length-1 <= n/2 {
		return uint32(n*(length-1) + start), nil
	}
	return uint32(n*(n-length+1) + (n - 1 - start)), nil
}

// DecodeRIV inverts EncodeRIV for a BWP of n PRBs.
func DecodeRIV(n int, riv uint32) (start, length int, err error) {
	v := int(riv)
	length = v/n + 1
	start = v % n
	if start+length > n {
		// Mirrored branch of the encoding.
		length = n - length + 2
		start = n - 1 - start
	}
	if length < 1 || start < 0 || start+length > n {
		return 0, 0, fmt.Errorf("phy: RIV %d decodes to invalid allocation for %d PRBs", riv, n)
	}
	return start, length, nil
}

// RIVBits returns the DCI field width needed for any RIV over n PRBs:
// ceil(log2(n(n+1)/2)).
func RIVBits(n int) int {
	max := n * (n + 1) / 2
	bits := 0
	for 1<<uint(bits) < max {
		bits++
	}
	return bits
}

// TimeAlloc is a time-domain resource allocation: a contiguous span of
// OFDM symbols within the slot (PDSCH mapping type A rows of the default
// tables collapse to this).
type TimeAlloc struct {
	StartSymbol int
	NumSymbols  int
}

// DefaultTimeAllocTable is a simplified TS 38.214 Table 5.1.2.1.1-2: the
// time-domain row index carried in the DCI indexes this table. Row 0 is
// the full-slot data allocation the cells in the paper use for most
// traffic; later rows are shorter allocations.
var DefaultTimeAllocTable = []TimeAlloc{
	{StartSymbol: 2, NumSymbols: 12},
	{StartSymbol: 2, NumSymbols: 10},
	{StartSymbol: 2, NumSymbols: 8},
	{StartSymbol: 2, NumSymbols: 6},
	{StartSymbol: 2, NumSymbols: 4},
	{StartSymbol: 8, NumSymbols: 6},
	{StartSymbol: 4, NumSymbols: 10},
	{StartSymbol: 2, NumSymbols: 2},
}

// Validate checks the time allocation fits a slot. Kept: it is the
// reference check the allocation-table tests assert with.
func (t TimeAlloc) Validate() error {
	if t.StartSymbol < 0 || t.NumSymbols < 1 || t.StartSymbol+t.NumSymbols > SymbolsPerSlot {
		return fmt.Errorf("phy: time allocation %+v exceeds slot", t)
	}
	return nil
}
