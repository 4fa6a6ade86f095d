package convcode

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	// Codeword class (bit 2 of the selector): clean blocks, some LLRs
	// moved onto, next to, below and past the check's margin.
	f.Add([]byte{21, 96, 0, 4, 0})                         // k=22 e=n: clean
	f.Add([]byte{21, 96, 0, 4, 3, 17, 3, 40, 2, 80, 4})    // three LLRs at the margin
	f.Add([]byte{21, 96, 0, 12, 2, 5, 0, 61, 1})           // e=96: a zero and a denormal
	f.Add([]byte{255, 128, 7, 6, 3, 200, 5, 7, 6, 90, 7})  // k=256 at 1e4: past, and a flip
	f.Add([]byte{2, 0, 0, 7, 1, 9, 4})                     // k=3 at 1e-3: nudged above
	f.Add([]byte{99, 0, 1, 13, 2, 33, 1, 210, 2, 250, 77}) // k=100, repeated
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
		if data[3]&4 != 0 {
			if data[3]&8 == 0 {
				e = n // recovery is the identity: the margin lands exactly
			} else {
				e = n + e%(2*n+1)
			}
			requireOracle(t, &w, &o, codewordLLRs(k, e, scale, src), k, "fuzz codeword")
			return
		}
		llr := make([]float64, e)
		for i := range llr {
			if len(src) > 0 {
				llr[i] = clampLLR(float64(int8(src[i%len(src)])) * scale)
			}
		}
		requireOracle(t, &w, &o, llr, k, "fuzz")
	})
}

// marginFactors scale the codeword check's threshold T for the LLRs the
// fuzzer's codeword class moves: an exact zero, a denormal, below T, onto
// it, the next float above it, past it, far past it, and a flipped sign
// at T/2 (a wrong hard decision of small weight).
var marginFactors = [8]float64{0, 0, 0.5, 1, 1, 4, 1e3, -0.5}

// codewordLLRs builds e channel LLRs (e >= CodedLen(k)) of a clean
// codeword whose info bits and per-LLR amplitudes (scale·[1, 17)) come
// from src; then src[0]%4 LLRs, at positions and factors read from the
// following byte pairs, are set to a factor of the check's threshold.
func codewordLLRs(k, e int, scale float64, src []byte) []float64 {
	if len(src) == 0 {
		src = []byte{0}
	}
	info := make([]uint8, k)
	for i := range info {
		info[i] = src[i%len(src)] >> (i % 8) & 1
	}
	ch, err := RateMatch(Encode(info), e)
	if err != nil {
		panic(err)
	}
	llr := make([]float64, e)
	for i, b := range ch {
		amp := clampLLR(scale * (1 + float64(src[(7*i+3)%len(src)])/16))
		llr[i] = amp * (1 - 2*float64(b))
	}
	for p := 0; p < int(src[0]%4) && 2*p+2 < len(src); p++ {
		j := int(src[2*p+1]) * 7919 % e
		kind := src[2*p+2] % 8
		sign := math.Copysign(1, llr[j])
		switch kind {
		case 0:
			llr[j] = 0 * sign // ±0
		case 1:
			llr[j] = math.SmallestNonzeroFloat64 * sign
		default:
			// The threshold depends on the LLR being placed: iterate to
			// its fixed point (Σ|l| barely moves).
			for range 3 {
				v := marginFactors[kind] * checkThreshold(RateRecover(llr, CodedLen(k)))
				if kind == 4 {
					v = math.Nextafter(v, math.Inf(1))
				}
				llr[j] = v * sign
			}
		}
	}
	return llr
}

// checkThreshold is codeword's n·2⁻⁵¹·Σ|l| for recovered LLRs, summed in
// the same order.
func checkThreshold(rec []float64) float64 {
	sum := 0.0
	for t := 0; t+rateInv <= len(rec); t += rateInv {
		sum += math.Abs(rec[t]) + math.Abs(rec[t+1]) + math.Abs(rec[t+2])
	}
	return float64(len(rec)) * 0x1p-51 * sum
}

// TestCodewordCheckMargin sweeps one LLR of a clean block across the
// check's bound: the check must accept exactly when that LLR's magnitude
// exceeds the threshold, and the decode must equal the oracle's either
// way. It then builds a float tie: LLRs of 1e6 beside 1e-11 on the 15
// coded bits by which two codewords differ, so their path metrics round
// to the same float and the trellis picks by its tie rule. There the
// check must decline and the decode must equal the oracle's, which for
// one of the two codewords is not the hard decision.
func TestCodewordCheckMargin(t *testing.T) {
	const k = 22
	n := CodedLen(k)
	rng := rand.New(rand.NewSource(37))
	info := randomBits(rng, k)
	coded := Encode(info)
	llr := make([]float64, n)
	for i, b := range coded {
		llr[i] = (1 + rng.Float64()) * (1 - 2*float64(b))
	}
	var w Workspace
	var o oracleWorkspace
	out := make([]uint8, k+memory)
	for _, j := range []int{0, 2, 40, n - 1} {
		sign, keep := math.Copysign(1, llr[j]), llr[j]
		at := 0.0 // the fixed point m = T(m)
		for range 4 {
			llr[j] = at * sign
			at = checkThreshold(llr)
		}
		for _, m := range []float64{
			0, math.SmallestNonzeroFloat64, at / 2, math.Nextafter(at, 0), at,
			math.Nextafter(at, 1), 2 * at, 1e-3, 1,
		} {
			llr[j] = m * sign
			want := m > checkThreshold(llr)
			if got := codeword(llr, k, out); got != want {
				t.Fatalf("LLR %d at %g (threshold %g): check %v, want %v", j, m, checkThreshold(llr), got, want)
			}
			if want && !slices.Equal(out[:k], info) {
				t.Fatalf("LLR %d at %g: accepted bits differ from the info bits", j, m)
			}
			requireOracle(t, &w, &o, llr, k, fmt.Sprintf("LLR %d at %g", j, m))
		}
		llr[j] = keep
	}

	// The tie: info and info with bit p flipped differ in the coded bits
	// of steps p..p+6 only.
	const p = 8
	other := slices.Clone(info)
	other[p] ^= 1
	alt := Encode(other)
	differ := 0
	hardWins := 0
	for _, pair := range [2][2][]uint8{{coded, alt}, {alt, coded}} {
		hard, rival := pair[0], pair[1]
		for i, b := range hard {
			mag := 1e6
			if b != rival[i] {
				mag = 1e-11
			}
			llr[i] = mag * (1 - 2*float64(b))
		}
		if codeword(llr, k, out) {
			t.Fatal("tie: the check accepted a block whose margin is below the float resolution")
		}
		requireOracle(t, &w, &o, llr, k, "tie")
		got := w.Decode(llr, k)
		if slices.Equal(got, hardInfo(hard, k)) {
			hardWins++
		}
	}
	for i := range coded {
		if coded[i] != alt[i] {
			differ++
		}
	}
	if differ != 15 || hardWins != 1 {
		t.Fatalf("tie: codewords differ in %d bits (want 15), the hard decision won %d of 2 (want 1)", differ, hardWins)
	}
}

// hardInfo inverts the encoder on a codeword's bits.
func hardInfo(coded []uint8, k int) []uint8 {
	llr := make([]float64, len(coded))
	for i, b := range coded {
		llr[i] = 1 - 2*float64(b)
	}
	out := make([]uint8, k+memory)
	if !codeword(llr, k, out) {
		panic("not a codeword")
	}
	return out[:k]
}

// TestCleanBlockSkipsTrellis: a clean block decodes on a fresh Workspace
// without the trellis ever being sized.
func TestCleanBlockSkipsTrellis(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, k := range []int{1, 22, 300} {
		info := randomBits(rng, k)
		var w Workspace
		got := w.Decode(noiselessLLR(Encode(info)), k)
		if !slices.Equal(got, info) {
			t.Fatalf("k=%d: decoded bits differ from the info bits", k)
		}
		if w.dec != nil {
			t.Fatalf("k=%d: a clean block allocated the trellis decisions", k)
		}
	}
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
