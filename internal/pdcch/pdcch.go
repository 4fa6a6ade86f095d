// Package pdcch implements the physical downlink control channel
// processing chain both ends of the simulated air interface share
// (TS 38.211 §7.3.2, TS 38.212 §7.3): CRC attachment with RNTI
// scrambling, polar coding, rate matching to the candidate's aggregation
// level, cell-specific bit scrambling, QPSK modulation, DMRS generation,
// and mapping onto CORESET resource elements.
//
// The gNB simulator encodes with it; NR-Scope's blind decoder runs the
// inverse chain per search-space candidate. The decoder additionally
// exposes a DMRS correlation detector so the scope can skip candidates
// that plainly carry no transmission — the standard trick for keeping
// blind decoding cheap.
//
// Everything a candidate decode needs that does not depend on the
// received grid is cached on the Codec: candidate RE layouts per
// (CORESET, aggregation level, start CCE), DMRS reference symbols per
// (CORESET, slot), Gold sequence prefixes per cinit, and polar code
// constructions per (K, E). Together with pooled demap scratch and the
// buffer-reusing DecodeCandidateInto / polar.DecodeInto variants, the
// steady-state per-candidate decode path performs no heap allocation.
package pdcch

import (
	"fmt"
	"math"
	"sync"

	"nrscope/internal/bits"
	"nrscope/internal/modulation"
	"nrscope/internal/phy"
	"nrscope/internal/polar"
)

// Codec carries the cell-specific scrambling context and the candidate
// decode caches. It is safe for concurrent use; cache entries are
// immutable once published, so readers share them without copying.
type Codec struct {
	cellID uint16

	mu      sync.RWMutex
	codes   map[[2]int]*polar.Code   // (K, E) -> construction
	gold    map[uint32][]uint8       // cinit -> sequence prefix
	layouts map[layoutKey]*layout    // candidate position -> RE geometry
	dmrs    map[dmrsKey][]complex128 // (CORESET, slot) -> DMRS reference

	scratch sync.Pool // *decodeScratch, reused across DecodeCandidate calls
}

// layoutKey identifies one candidate position within a CORESET.
type layoutKey struct {
	cs  phy.CORESET
	al  int
	cce int
}

// dmrsKey identifies one (CORESET, slot-in-frame) DMRS reference table.
type dmrsKey struct {
	cs   phy.CORESET
	slot int
}

// layout is the immutable RE geometry of one candidate position: its
// data REs in mapping order, its DMRS REs, and for each DMRS RE the
// index into the per-(CORESET, slot) reference table.
type layout struct {
	data   []phy.RE
	dmrs   []phy.RE
	refIdx []int32
}

// decodeScratch is the pooled working memory of one candidate decode.
type decodeScratch struct {
	syms []complex128
	llr  []float64
}

// New returns a codec for the given physical cell id.
func New(cellID uint16) *Codec {
	return &Codec{
		cellID:  cellID,
		codes:   make(map[[2]int]*polar.Code),
		gold:    make(map[uint32][]uint8),
		layouts: make(map[layoutKey]*layout),
		dmrs:    make(map[dmrsKey][]complex128),
	}
}

// goldSeq returns (a prefix of) the Gold sequence for cinit, at least n
// bits long, from the cache. Gold sequences have the prefix property, so
// one entry per cinit suffices; the PDCCH needs only a handful of cinit
// values per cell (one scrambling init plus one DMRS init per
// slot/symbol pair), keeping the cache small and hot.
func (c *Codec) goldSeq(cinit uint32, n int) []uint8 {
	c.mu.RLock()
	seq := c.gold[cinit]
	c.mu.RUnlock()
	if len(seq) >= n {
		return seq[:n]
	}
	grown := n * 2
	if grown < 2048 {
		grown = 2048
	}
	seq = bits.GoldSequence(cinit, grown)
	c.mu.Lock()
	if prev := c.gold[cinit]; len(prev) < len(seq) {
		c.gold[cinit] = seq
	} else {
		seq = prev
	}
	c.mu.Unlock()
	return seq[:n]
}

// code returns the cached polar construction for (k, e).
func (c *Codec) code(k, e int) (*polar.Code, error) {
	key := [2]int{k, e}
	c.mu.RLock()
	pc := c.codes[key]
	c.mu.RUnlock()
	if pc != nil {
		return pc, nil
	}
	pc, err := polar.NewCode(k, e)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.codes[key] = pc
	c.mu.Unlock()
	return pc, nil
}

// layout returns the cached RE geometry of a candidate position,
// building it on first use. The cache is bounded by the candidate
// position space: sum over aggregation levels of NumCCE/L entries per
// CORESET.
func (c *Codec) layout(cs phy.CORESET, cand phy.Candidate) *layout {
	key := layoutKey{cs: cs, al: cand.AggLevel, cce: cand.StartCCE}
	c.mu.RLock()
	lay := c.layouts[key]
	c.mu.RUnlock()
	if lay != nil {
		return lay
	}
	lay = &layout{
		data: cs.CandidateDataREs(cand.StartCCE, cand.AggLevel),
		dmrs: cs.CandidateDMRSREs(cand.StartCCE, cand.AggLevel),
	}
	perSym := cs.NumPRB * len(phy.REGDMRSOffsets)
	lay.refIdx = make([]int32, len(lay.dmrs))
	for i, re := range lay.dmrs {
		// DMRS rides every 4th subcarrier; index the reference table by
		// the RE's subcarrier so encoder and decoder agree regardless of
		// enumeration order.
		k := re.Subcarrier % (cs.NumPRB * phy.SubcarriersPerPRB) / 4
		lay.refIdx[i] = int32((re.Symbol-cs.StartSym)*perSym + k)
	}
	c.mu.Lock()
	if prev := c.layouts[key]; prev != nil {
		lay = prev
	} else {
		c.layouts[key] = lay
	}
	c.mu.Unlock()
	return lay
}

// dmrsRef returns the cached DMRS reference symbols of a CORESET for a
// slot: one QPSK symbol per DMRS subcarrier per CORESET OFDM symbol,
// flattened symbol-major. DMRS is derived from the cell id and
// slot/symbol indices only, so a passive observer can regenerate it
// without UE state; slot indices recur every frame, keeping the cache
// bounded at slots-per-frame entries per CORESET.
func (c *Codec) dmrsRef(cs phy.CORESET, slot int) []complex128 {
	key := dmrsKey{cs: cs, slot: slot}
	c.mu.RLock()
	ref := c.dmrs[key]
	c.mu.RUnlock()
	if ref != nil {
		return ref
	}
	perSym := cs.NumPRB * len(phy.REGDMRSOffsets)
	ref = make([]complex128, cs.Duration*perSym)
	for d := 0; d < cs.Duration; d++ {
		seq := c.goldSeq(bits.PDCCHDMRSInit(slot, cs.StartSym+d, c.cellID), 2*perSym)
		for k := 0; k < perSym; k++ {
			b0, b1 := seq[2*k%len(seq)], seq[(2*k+1)%len(seq)]
			ref[d*perSym+k] = complex((1-2*float64(b0))/math.Sqrt2, (1-2*float64(b1))/math.Sqrt2)
		}
	}
	c.mu.Lock()
	if prev := c.dmrs[key]; prev != nil {
		ref = prev
	} else {
		c.dmrs[key] = ref
	}
	c.mu.Unlock()
	return ref
}

// Encode writes one DCI transmission onto the grid: payload bits are
// CRC24C-protected with the RNTI scrambled in, polar encoded and rate
// matched to cand.AggLevel CCEs, scrambled, QPSK mapped onto the
// candidate's data REs, and the DMRS is placed on its pilot REs.
func (c *Codec) Encode(g *phy.Grid, cs phy.CORESET, cand phy.Candidate, slot int, payload []uint8, rnti uint16) error {
	block := bits.AttachDCICRC(payload, rnti)
	e := cand.AggLevel * phy.BitsPerCCE
	pc, err := c.code(len(block), e)
	if err != nil {
		return fmt.Errorf("pdcch: %w", err)
	}
	coded := pc.Encode(block)
	scr := c.goldSeq(bits.PDCCHScramblingInit(0, c.cellID), len(coded))
	for i := range coded {
		coded[i] ^= scr[i]
	}
	syms := modulation.Map(modulation.QPSK, coded)
	lay := c.layout(cs, cand)
	if len(syms) != len(lay.data) {
		return fmt.Errorf("pdcch: %d symbols for %d REs", len(syms), len(lay.data))
	}
	for i, re := range lay.data {
		g.Set(re.Symbol, re.Subcarrier, syms[i])
	}
	ref := c.dmrsRef(cs, slot)
	for i, re := range lay.dmrs {
		g.Set(re.Symbol, re.Subcarrier, ref[lay.refIdx[i]])
	}
	return nil
}

// DMRSMetric correlates the candidate's pilot REs against the expected
// DMRS. It returns a normalised metric in [-1, 1]; values near 1 mean a
// PDCCH transmission is present on the candidate. Empty or noise-only
// candidates score near zero. The layout and reference symbols come from
// the codec caches, so the steady-state call is allocation free.
func (c *Codec) DMRSMetric(g *phy.Grid, cs phy.CORESET, cand phy.Candidate, slot int) float64 {
	lay := c.layout(cs, cand)
	ref := c.dmrsRef(cs, slot)
	var corr complex128
	var energy float64
	for i, re := range lay.dmrs {
		rx := g.At(re.Symbol, re.Subcarrier)
		r := ref[lay.refIdx[i]]
		corr += rx * complex(real(r), -imag(r))
		energy += real(rx)*real(rx) + imag(rx)*imag(rx)
	}
	n := float64(len(lay.dmrs))
	if energy == 0 {
		return 0
	}
	// Normalise by sqrt(total energy * reference energy): |rho| <= 1.
	mag := math.Sqrt(real(corr)*real(corr) + imag(corr)*imag(corr))
	return mag / math.Sqrt(energy*n)
}

// DMRSThreshold is the detection threshold for DMRSMetric above which a
// candidate is worth a polar decode. Chosen so noise-only candidates are
// rejected with high probability while transmissions at usable SNRs pass.
const DMRSThreshold = 0.5

// CCEMetric is DMRSMetric restricted to a single CCE (18 pilot REs).
// The blind decoder computes it once per CCE per slot and only spends
// polar decodes on candidates whose CCEs all look occupied.
func (c *Codec) CCEMetric(g *phy.Grid, cs phy.CORESET, cce, slot int) float64 {
	return c.DMRSMetric(g, cs, phy.Candidate{AggLevel: 1, StartCCE: cce}, slot)
}

// OccupiedCCEs scans the CORESET and returns, per CCE, whether its DMRS
// correlation clears the detection threshold.
func (c *Codec) OccupiedCCEs(g *phy.Grid, cs phy.CORESET, slot int) []bool {
	return c.OccupiedCCEsInto(nil, g, cs, slot)
}

// OccupiedCCEsInto is OccupiedCCEs writing into dst (reused when its
// capacity covers the CORESET), so the per-slot occupancy sweep does not
// allocate at steady state.
func (c *Codec) OccupiedCCEsInto(dst []bool, g *phy.Grid, cs phy.CORESET, slot int) []bool {
	n := cs.NumCCE()
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = c.CCEMetric(g, cs, i, slot) >= DMRSThreshold
	}
	return dst
}

// PayloadFits reports whether a payload of the given size can be carried
// at the aggregation level at all (a polar code for it exists). The
// blind decoder skips infeasible positions without counting them as
// decode failures: no transmission is possible there.
func PayloadFits(payloadBits, aggLevel int) bool {
	return polar.Feasible(payloadBits+24, aggLevel*phy.BitsPerCCE)
}

// DecodeCandidate runs the inverse chain on one candidate and returns
// the hard-decision block (payload || CRC24) of the hypothesised payload
// size. The caller verifies the CRC (with a known RNTI) or recovers the
// RNTI from it. n0 is the receiver's noise variance estimate.
func (c *Codec) DecodeCandidate(g *phy.Grid, cs phy.CORESET, cand phy.Candidate, slot int, payloadBits int, n0 float64) ([]uint8, error) {
	return c.DecodeCandidateInto(nil, g, cs, cand, slot, payloadBits, n0)
}

// DecodeCandidateInto is DecodeCandidate writing the hard-decision block
// into dst (reused when its capacity covers payloadBits+24 bits). With a
// warm cache the call performs no heap allocation: RE layout, scrambling
// sequence and polar construction come from the codec caches, and the
// demap/descramble working buffers from a pool.
func (c *Codec) DecodeCandidateInto(dst []uint8, g *phy.Grid, cs phy.CORESET, cand phy.Candidate, slot int, payloadBits int, n0 float64) ([]uint8, error) {
	k := payloadBits + 24
	e := cand.AggLevel * phy.BitsPerCCE
	pc, err := c.code(k, e)
	if err != nil {
		return nil, fmt.Errorf("pdcch: %w", err)
	}
	lay := c.layout(cs, cand)
	sc, _ := c.scratch.Get().(*decodeScratch)
	if sc == nil {
		sc = &decodeScratch{}
	}
	if cap(sc.syms) < len(lay.data) {
		sc.syms = make([]complex128, len(lay.data))
	}
	syms := sc.syms[:len(lay.data)]
	for i, re := range lay.data {
		syms[i] = g.At(re.Symbol, re.Subcarrier)
	}
	llr := modulation.DemapInto(sc.llr, modulation.QPSK, syms, n0)
	sc.llr = llr
	// Descramble in the LLR domain: a scrambling bit of 1 flips the sign.
	seq := c.goldSeq(bits.PDCCHScramblingInit(0, c.cellID), len(llr))
	bits.DescrambleLLRInPlace(seq, llr)
	out := pc.DecodeInto(dst, llr)
	c.scratch.Put(sc)
	return out, nil
}
