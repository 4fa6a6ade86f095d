package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the least number of samples that must lie beyond a
// reported percentile: with fewer, the value is set by a handful of
// outliers and does not repeat between runs.
const minBeyond = 10

// percentile returns the p-th percentile (nearest rank) of an ascending
// slice. It refuses a percentile with fewer than minBeyond samples
// beyond it rather than report a number that cannot repeat.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("percentile %v out of range", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if p > 50 && beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples leaves %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// median does not modify v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// medianOfPasses reduces a passes × ops matrix to the per-operation
// median across passes, for quantities whose run-to-run scatter is
// two-sided (a delivery delay depends on where in a batch window the
// record fell).
func medianOfPasses(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := make([]float64, len(passes[0]))
	col := make([]float64, len(passes))
	for i := range out {
		for p := range passes {
			col[p] = passes[p][i]
		}
		out[i] = median(col)
	}
	return out
}

// bestOfPasses reduces a passes × ops timing matrix to one value per
// operation: the fastest pass. Timing noise on a shared box only ever
// adds (preemption, a neighbour, a GC cycle, a slower clock for some
// seconds), and it comes in stretches that cover several consecutive
// passes, so a median across passes lands in whichever regime held the
// majority while the minimum repeats as long as one pass saw the
// operation undisturbed. Statistics are taken over these per-operation
// values.
func bestOfPasses(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := append([]float64(nil), passes[0]...)
	for _, pass := range passes[1:] {
		for i, v := range pass {
			if v < out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (exclusive method), so numbers
// here compare directly with the acceptance check run on the benchmark.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := sortedCopy(v)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
