package convcode

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nrscope/internal/modulation"
)

// TestDecodeMatchesOracle: the butterfly kernel must reproduce the scalar
// oracle's hard decisions bit for bit — punctured and repeated, clean to
// hopeless channels, amplitudes up to MaxLLR, integer LLRs full of ties,
// all-zero and ±MaxLLR-saturated input — through one Workspace reused
// across growing and shrinking blocks. Every k up to 2·memory is run, so
// blocks whose start-up and flush steps overlap, abut or are apart by
// one step all meet the trimmed trellis.
func TestDecodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ks := make([]int, 24)
	for i := range ks {
		ks[i] = 1 + rng.Intn(300)
	}
	ks[0], ks[1] = 1, 300
	ks = append(ks[:8], append([]int{6000}, ks[8:]...)...)
	ks = append(ks, 4000, 8000)
	if testing.Short() {
		ks = append(ks[:6], 4000, 17)
	}
	for k := 2; k <= 2*memory; k++ {
		ks = append(ks, k)
	}
	amps := []float64{0, 1, 4, 30, modulation.MaxLLR}
	sigmas := []float64{0, 0.5, 2, 5, 20}
	var w Workspace
	var o oracleWorkspace
	for _, k := range ks {
		coded := Encode(randomBits(rng, k))
		n := len(coded)
		es := []int{n/2 + 1, n/2 + 1 + rng.Intn(n-n/2), n, n + 1 + rng.Intn(2*n), 3 * n}
		combo := 0
		for _, amp := range amps {
			for _, sigma := range sigmas {
				if k > 300 && combo%7 != 0 { // long blocks: a spread sample
					combo++
					continue
				}
				e := es[combo%len(es)]
				combo++
				ch, err := RateMatch(coded, e)
				if err != nil {
					t.Fatal(err)
				}
				llr := make([]float64, e)
				for i, b := range ch {
					llr[i] = clampLLR(amp*(1-2*float64(b)) + sigma*rng.NormFloat64())
				}
				requireOracle(t, &w, &o, llr, k, fmt.Sprintf("amp=%g sigma=%g", amp, sigma))
				for i, v := range llr {
					llr[i] = math.Round(v)
				}
				requireOracle(t, &w, &o, llr, k, fmt.Sprintf("amp=%g sigma=%g quantised", amp, sigma))
				for i, v := range llr {
					llr[i] = math.Copysign(modulation.MaxLLR, v)
				}
				requireOracle(t, &w, &o, llr, k, fmt.Sprintf("amp=%g sigma=%g saturated", amp, sigma))
			}
		}
	}
}

// FuzzDecodeMatchesOracle: bytes -> (k, e, clamped LLRs), the kernel and
// the oracle must agree. The seeds below run as part of plain go test.
func FuzzDecodeMatchesOracle(f *testing.F) {
	// data: k-1, e (little endian), scale selector, LLR bytes.
	f.Add([]byte{21, 96, 0, 0})                                     // k=22 e=96, all-zero LLRs
	f.Add([]byte{21, 96, 0, 0, 4, 252, 4, 4, 252, 252, 0, 4, 4})    // k=22 e=96, integer ties
	f.Add([]byte{255, 128, 7, 1, 17, 200, 3, 99, 128, 127, 5, 250}) // k=256 e=1920, fractional
	f.Add([]byte{0, 21, 0, 2, 127, 128, 1, 255})                    // k=1 e=n, saturated
	f.Add([]byte{100, 255, 255, 3, 9, 8, 7, 6, 5, 4, 3, 2, 1})      // k=101 e=947, tiny LLRs
	f.Add([]byte{60, 70, 0, 0, 1, 255, 1, 255, 0, 0, 1, 1, 255})    // k=61 e=70 < n/2
	f.Add([]byte{21, 0, 0, 0, 7})                                   // e=0: no LLRs at all
	f.Add([]byte{4, 33, 0, 1, 200, 7, 90, 255, 3})                  // k=5 e=33: start-up meets the flush
	f.Add([]byte{5, 54, 0, 0, 9, 247, 1, 128, 60})                  // k=6 e=54: start-up abuts the flush
	var w Workspace
	var o oracleWorkspace
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		k := 1 + int(data[0])
		n := CodedLen(k)
		// Any e from 0 (a zero-bit grant) to 3n: RecoverAndDecode does not
		// require RateMatch's puncturing limit.
		e := int(binary.LittleEndian.Uint16(data[1:3])) % (3*n + 1)
		scale := [4]float64{1, 0.37, 1e4, 1e-3}[data[3]&3]
		src := data[4:]
		llr := make([]float64, e)
		for i := range llr {
			if len(src) > 0 {
				llr[i] = clampLLR(float64(int8(src[i%len(src)])) * scale)
			}
		}
		requireOracle(t, &w, &o, llr, k, "fuzz")
	})
}

// clampLLR applies the saturation every production LLR arrives with.
func clampLLR(v float64) float64 {
	if v != v {
		return 0
	}
	return min(modulation.MaxLLR, max(-modulation.MaxLLR, v))
}

func requireOracle(t *testing.T, w *Workspace, o *oracleWorkspace, llr []float64, k int, what string) {
	t.Helper()
	got := w.RecoverAndDecode(llr, k)
	want := o.recoverAndDecode(llr, k)
	for i, v := range o.recovered[:CodedLen(k)] {
		if math.Float64bits(w.recovered[i]) != math.Float64bits(v) {
			t.Fatalf("k=%d e=%d %s: recovered LLR %d is %v, oracle %v", k, len(llr), what, i, w.recovered[i], v)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("k=%d e=%d %s: bit %d kernel %d != oracle %d", k, len(llr), what, i, got[i], want[i])
		}
	}
}

// oracleWorkspace is the scalar float Viterbi decoder Workspace used
// before the butterfly kernel, kept verbatim (bar the receiver and
// method names) as the bit-exact reference TestDecodeMatchesOracle and
// FuzzDecodeMatchesOracle hold Workspace to.
type oracleWorkspace struct {
	recovered []float64
	metric    [numStates]float64
	next      [numStates]float64
	survivors [][numStates]uint8
	prevOf    [][numStates]uint8
	out       []uint8
}

func (w *oracleWorkspace) decode(llr []float64, k int) []uint8 {
	steps := k + memory
	if len(llr) != steps*rateInv {
		panic(fmt.Sprintf("convcode: got %d LLRs for k = %d (want %d)", len(llr), k, steps*rateInv))
	}
	const inf = 1e300
	if cap(w.survivors) < steps {
		w.survivors = make([][numStates]uint8, steps)
		w.prevOf = make([][numStates]uint8, steps)
	}
	// survivors[t][s] is the input bit that led into state s at step t.
	survivors := w.survivors[:steps]
	prevOf := w.prevOf[:steps]
	metric, next := &w.metric, &w.next
	metric[0] = 0
	for s := 1; s < numStates; s++ {
		metric[s] = -inf // trellis starts in state 0
	}

	for t := 0; t < steps; t++ {
		for s := range next {
			next[s] = -inf
		}
		l0 := llr[t*rateInv]
		l1 := llr[t*rateInv+1]
		l2 := llr[t*rateInv+2]
		// Branch metrics by 3-bit output pattern: +LLR when the output
		// bit is 0. Hoisting the eight sums out of the state loop turns
		// the 128 transition updates into one add and one compare each.
		var bm [8]float64
		bm[0b000] = l0 + l1 + l2
		bm[0b001] = l0 + l1 - l2
		bm[0b010] = l0 - l1 + l2
		bm[0b011] = l0 - l1 - l2
		bm[0b100] = -l0 + l1 + l2
		bm[0b101] = -l0 + l1 - l2
		bm[0b110] = -l0 - l1 + l2
		bm[0b111] = -l0 - l1 - l2
		surv := &survivors[t]
		prev := &prevOf[t]
		for s := 0; s < numStates; s++ {
			if metric[s] == -inf {
				continue
			}
			for in := uint8(0); in < 2; in++ {
				m := metric[s] + bm[outputTable[s][in]]
				ns := nextState[s][in]
				if m > next[ns] {
					next[ns] = m
					surv[ns] = in
					prev[ns] = uint8(s)
				}
			}
		}
		metric, next = next, metric
	}

	// Trace back from state 0 (zero-tailed).
	if cap(w.out) < steps {
		w.out = make([]uint8, steps)
	}
	out := w.out[:steps]
	state := uint8(0)
	for t := steps - 1; t >= 0; t-- {
		out[t] = survivors[t][state]
		state = prevOf[t][state]
	}
	return out[:k]
}

func (w *oracleWorkspace) recoverAndDecode(llr []float64, k int) []uint8 {
	n := CodedLen(k)
	if cap(w.recovered) < n {
		w.recovered = make([]float64, n)
	}
	rec := w.recovered[:n]
	for i := range rec {
		rec[i] = 0
	}
	e := len(llr)
	if e >= n {
		for i, v := range llr {
			rec[i%n] += v
		}
	} else {
		for i := 0; i < e; i++ {
			rec[i*n/e] += llr[i]
		}
	}
	return w.decode(rec, k)
}
