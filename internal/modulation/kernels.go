// Closed-form, branch-free soft-demap kernels.
//
// The QAM kernels evaluate max-log LLRs per PAM axis in closed form: for
// each bit of a Gray-coded axis, the nearest label-0 and label-1 levels
// are selected through a min-tree over the per-level squared distances —
// the nested |y|-folding structure of the 38.211 Gray mapping collapses
// each class to a handful of candidates — so the inner loops are
// straight-line code with no per-symbol branching and no label lookups.
// They compute the very same squared distances a scan over every level
// computes (same level values, same subtraction/multiplication/division
// order), so their LLRs are bit-identical to that scan, which lives in
// kernels_test.go as their oracle.

package modulation

// MinN0 is the noise-variance floor DemapInto clamps to. The previous
// 1e-12 floor made the QPSK LLR scale ~4e12, which overflowed downstream
// branch-metric sums; 1e-6 together with the MaxLLR saturation keeps every
// LLR, and any bounded sum of LLRs, comfortably finite.
const MinN0 = 1e-6

// MaxLLR is the saturation magnitude of every demapped LLR. Non-finite
// intermediate values (from non-finite symbols) are mapped to 0 — an
// unreadable symbol carries no information either way.
const MaxLLR = 1e6

// saturate clamps an LLR into [-MaxLLR, MaxLLR], mapping NaN to 0. Past
// the NaN test two plain comparisons do what the builtin min and max
// would, without their NaN and signed-zero handling: ±0 passes through.
func saturate(v float64) float64 {
	if v != v { // NaN: no information
		return 0
	}
	if v > MaxLLR {
		return MaxLLR
	}
	if v < -MaxLLR {
		return -MaxLLR
	}
	return v
}

// Positive per-axis PAM amplitudes in ascending order: lv16 = {d, 3d},
// lv64 = {d..7d}, lv256 = {d..15d} with d the per-scheme normalisation.
// k·d is bit-identical to Map's grayPAM(bits)·d, because grayPAM
// returns the exact small integer k.
var (
	lv16  [2]float64
	lv64  [4]float64
	lv256 [8]float64
)

func init() {
	fill := func(lv []float64, s Scheme) {
		for i := range lv {
			lv[i] = float64(2*i+1) * s.norm()
		}
	}
	fill(lv16[:], QAM16)
	fill(lv64[:], QAM64)
	fill(lv256[:], QAM256)
}

// demapAxis16 writes the two LLRs of one 16QAM axis at o[off], o[off+2].
//
// Gray magnitudes by b1: 0 -> d, 1 -> 3d. Classes: b0 splits by sign,
// b1 by magnitude {d} vs {3d}; each class minimum is a one-deep min-tree
// over exact squared distances.
func demapAxis16(o []float64, off int, y, n0 float64) {
	l1, l3 := lv16[0], lv16[1]
	d1 := y - l1
	d3 := y - l3
	e1 := y + l1
	e3 := y + l3
	m1 := d1 * d1
	m3 := d3 * d3
	w1 := e1 * e1
	w3 := e3 * e3
	o[off] = saturate((min(w1, w3) - min(m1, m3)) / n0)
	o[off+2] = saturate((min(m3, w3) - min(m1, w1)) / n0)
}

// demapAxis64 writes the three LLRs of one 64QAM axis at o[off], o[off+2],
// o[off+4].
//
// Gray magnitudes by (b1,b2): 00 -> 3d, 01 -> d, 10 -> 5d, 11 -> 7d.
// Per-bit classes over magnitudes: b1: {d,3d} vs {5d,7d};
// b2: {3d,5d} vs {d,7d}; b0 splits by sign. s_k = min over the ±k·d pair.
func demapAxis64(o []float64, off int, y, n0 float64) {
	l1, l3, l5, l7 := lv64[0], lv64[1], lv64[2], lv64[3]
	d1 := y - l1
	d3 := y - l3
	d5 := y - l5
	d7 := y - l7
	e1 := y + l1
	e3 := y + l3
	e5 := y + l5
	e7 := y + l7
	m1 := d1 * d1
	m3 := d3 * d3
	m5 := d5 * d5
	m7 := d7 * d7
	w1 := e1 * e1
	w3 := e3 * e3
	w5 := e5 * e5
	w7 := e7 * e7
	s1 := min(m1, w1)
	s3 := min(m3, w3)
	s5 := min(m5, w5)
	s7 := min(m7, w7)
	pos := min(min(m1, m3), min(m5, m7))
	neg := min(min(w1, w3), min(w5, w7))
	o[off] = saturate((neg - pos) / n0)
	o[off+2] = saturate((min(s5, s7) - min(s1, s3)) / n0)
	o[off+4] = saturate((min(s1, s7) - min(s3, s5)) / n0)
}

// demapAxis256 writes the four LLRs of one 256QAM axis at o[off],
// o[off+2], o[off+4], o[off+6].
//
// Gray magnitudes by (b1,b2,b3): b1=0 -> {5,7,3,1}d, b1=1 -> {11,9,13,15}d
// (in b2b3 order 00,01,10,11). Per-bit magnitude classes:
// b1: {1,3,5,7} vs {9,11,13,15}; b2: {5,7,9,11} vs {1,3,13,15};
// b3: {3,5,11,13} vs {1,7,9,15}; b0 splits by sign.
func demapAxis256(o []float64, off int, y, n0 float64) {
	l01, l03, l05, l07 := lv256[0], lv256[1], lv256[2], lv256[3]
	l09, l11, l13, l15 := lv256[4], lv256[5], lv256[6], lv256[7]
	d01 := y - l01
	d03 := y - l03
	d05 := y - l05
	d07 := y - l07
	d09 := y - l09
	d11 := y - l11
	d13 := y - l13
	d15 := y - l15
	e01 := y + l01
	e03 := y + l03
	e05 := y + l05
	e07 := y + l07
	e09 := y + l09
	e11 := y + l11
	e13 := y + l13
	e15 := y + l15
	m01 := d01 * d01
	m03 := d03 * d03
	m05 := d05 * d05
	m07 := d07 * d07
	m09 := d09 * d09
	m11 := d11 * d11
	m13 := d13 * d13
	m15 := d15 * d15
	w01 := e01 * e01
	w03 := e03 * e03
	w05 := e05 * e05
	w07 := e07 * e07
	w09 := e09 * e09
	w11 := e11 * e11
	w13 := e13 * e13
	w15 := e15 * e15
	s01 := min(m01, w01)
	s03 := min(m03, w03)
	s05 := min(m05, w05)
	s07 := min(m07, w07)
	s09 := min(m09, w09)
	s11 := min(m11, w11)
	s13 := min(m13, w13)
	s15 := min(m15, w15)
	pos := min(min(min(m01, m03), min(m05, m07)), min(min(m09, m11), min(m13, m15)))
	neg := min(min(min(w01, w03), min(w05, w07)), min(min(w09, w11), min(w13, w15)))
	o[off] = saturate((neg - pos) / n0)
	o[off+2] = saturate((min(min(s09, s11), min(s13, s15)) - min(min(s01, s03), min(s05, s07))) / n0)
	o[off+4] = saturate((min(min(s01, s03), min(s13, s15)) - min(min(s05, s07), min(s09, s11))) / n0)
	o[off+6] = saturate((min(min(s01, s07), min(s09, s15)) - min(min(s03, s05), min(s11, s13))) / n0)
}
