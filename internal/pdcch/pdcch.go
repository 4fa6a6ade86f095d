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
// received grid is cached on the Codec: one RE table per CORESET (every
// candidate position is a slice of it), DMRS reference symbols per
// (CORESET, slot), Gold sequence prefixes per cinit, and polar code
// constructions per (K, E). A Plan resolves those caches once per
// (CORESET, slot, payload size) and then decodes every candidate of the
// slot in its own LLR and polar scratch, without a map lookup: one pass
// reads the candidate's REs off the grid through the RE table and
// writes their descrambled QPSK LLRs straight into the polar decoder's
// input. A Plan is the only decode path: the Codec's own decode entry
// points run through a Plan the Codec owns. Nothing on it takes a lock
// or a pool, or allocates at steady state. A Codec, and every Plan
// resolved against it, belongs to one goroutine at a time.
package pdcch

import (
	"fmt"
	"math"

	"nrscope/internal/bits"
	"nrscope/internal/modulation"
	"nrscope/internal/phy"
	"nrscope/internal/polar"
)

// Codec carries the cell-specific scrambling context and the candidate
// decode caches. It is not safe for concurrent use: one goroutine owns
// it at a time (a Scope owns its cell's Codec, the gNB simulator its
// own), so the caches fill in place, without a lock.
type Codec struct {
	cellID uint16
	scr    []uint8 // PDCCH scrambling sequence, maxE bits

	codes  map[[2]int]*polar.Code   // (K, E) -> construction
	gold   map[uint32][]uint8       // cinit -> sequence prefix
	tables map[phy.CORESET]*table   // CORESET -> RE geometry
	dmrs   map[dmrsKey][]complex128 // (CORESET, slot) -> DMRS reference

	plan Plan // the decode context of the Codec's own entry points
}

// maxE is the rate-matched length of the largest aggregation level.
const maxE = 16 * phy.BitsPerCCE

// dmrsKey identifies one (CORESET, slot-in-frame) DMRS reference table.
type dmrsKey struct {
	cs   phy.CORESET
	slot int
}

// Data and DMRS REs per CCE (non-interleaved mapping).
const (
	dataPerCCE = phy.REGsPerCCE * phy.DataREsPerREG
	dmrsPerCCE = phy.REGsPerCCE * len(phy.REGDMRSOffsets)
)

// span is the RE geometry of one candidate position: its data REs in
// mapping order, its DMRS REs, and for each DMRS RE the index into the
// per-(CORESET, slot) reference table.
type span struct {
	data   []phy.RE
	dmrs   []phy.RE
	refIdx []int32
}

// newSpan builds the geometry of n CCEs of cs from CCE start.
func newSpan(cs phy.CORESET, start, n int) span {
	sp := span{
		data: cs.CandidateDataREs(start, n),
		dmrs: cs.CandidateDMRSREs(start, n),
	}
	perSym := cs.NumPRB * len(phy.REGDMRSOffsets)
	sp.refIdx = make([]int32, len(sp.dmrs))
	for i, re := range sp.dmrs {
		// DMRS rides every 4th subcarrier; index the reference table by
		// the RE's subcarrier so encoder and decoder agree regardless of
		// enumeration order.
		k := re.Subcarrier % (cs.NumPRB * phy.SubcarriersPerPRB) / 4
		sp.refIdx[i] = int32((re.Symbol-cs.StartSym)*perSym + k)
	}
	return sp
}

// table is the immutable RE geometry of a whole CORESET, CCE by CCE.
// Under non-interleaved mapping a candidate of L CCEs from CCE i owns
// exactly CCEs i..i+L-1, so its geometry is the slice [i, i+L) of each
// array, scaled by the per-CCE RE count: every (aggregation level,
// start CCE) position is indexed arithmetically, with no per-position
// entry to build or look up.
type table struct {
	nCCE int
	all  span
}

func newTable(cs phy.CORESET) *table {
	return &table{nCCE: cs.NumCCE(), all: newSpan(cs, 0, cs.NumCCE())}
}

// span returns the geometry of the al CCEs from cce. A position outside
// the CORESET (which no search space produces) is built per call.
func (t *table) span(cs phy.CORESET, al, cce int) span {
	if al < 1 || cce < 0 || cce+al > t.nCCE {
		return newSpan(cs, cce, al)
	}
	return span{
		data:   t.all.data[cce*dataPerCCE : (cce+al)*dataPerCCE],
		dmrs:   t.all.dmrs[cce*dmrsPerCCE : (cce+al)*dmrsPerCCE],
		refIdx: t.all.refIdx[cce*dmrsPerCCE : (cce+al)*dmrsPerCCE],
	}
}

// New returns a codec for the given physical cell id.
func New(cellID uint16) *Codec {
	return &Codec{
		cellID: cellID,
		scr:    bits.GoldSequence(bits.PDCCHScramblingInit(0, cellID), maxE),
		codes:  make(map[[2]int]*polar.Code),
		gold:   make(map[uint32][]uint8),
		tables: make(map[phy.CORESET]*table),
		dmrs:   make(map[dmrsKey][]complex128),
	}
}

// scrambling returns the first n bits of the cell's PDCCH scrambling
// sequence.
func (c *Codec) scrambling(n int) []uint8 {
	if n <= len(c.scr) {
		return c.scr[:n]
	}
	return c.goldSeq(bits.PDCCHScramblingInit(0, c.cellID), n)
}

// goldSeq returns (a prefix of) the Gold sequence for cinit, at least n
// bits long, from the cache. Gold sequences have the prefix property, so
// one entry per cinit suffices; the PDCCH needs only a handful of cinit
// values per cell (one DMRS init per slot/symbol pair), keeping the
// cache small and hot.
func (c *Codec) goldSeq(cinit uint32, n int) []uint8 {
	seq := c.gold[cinit]
	if len(seq) < n {
		seq = bits.GoldSequence(cinit, max(2*n, 2048))
		c.gold[cinit] = seq
	}
	return seq[:n]
}

// code returns the cached polar construction for (k, e).
func (c *Codec) code(k, e int) (*polar.Code, error) {
	key := [2]int{k, e}
	if pc := c.codes[key]; pc != nil {
		return pc, nil
	}
	pc, err := polar.NewCode(k, e)
	if err != nil {
		return nil, fmt.Errorf("pdcch: %w", err)
	}
	c.codes[key] = pc
	return pc, nil
}

// table returns the cached RE table of a CORESET, building it on first
// use.
func (c *Codec) table(cs phy.CORESET) *table {
	t := c.tables[cs]
	if t == nil {
		t = newTable(cs)
		c.tables[cs] = t
	}
	return t
}

// dmrsRef returns the cached DMRS reference symbols of a CORESET for a
// slot: one QPSK symbol per DMRS subcarrier per CORESET OFDM symbol,
// flattened symbol-major. DMRS is derived from the cell id and
// slot/symbol indices only, so a passive observer can regenerate it
// without UE state; slot indices recur every frame, keeping the cache
// bounded at slots-per-frame entries per CORESET.
func (c *Codec) dmrsRef(cs phy.CORESET, slot int) []complex128 {
	key := dmrsKey{cs: cs, slot: slot}
	if ref := c.dmrs[key]; ref != nil {
		return ref
	}
	perSym := cs.NumPRB * len(phy.REGDMRSOffsets)
	ref := make([]complex128, cs.Duration*perSym)
	for d := 0; d < cs.Duration; d++ {
		seq := c.goldSeq(bits.PDCCHDMRSInit(slot, cs.StartSym+d, c.cellID), 2*perSym)
		for k := 0; k < perSym; k++ {
			b0, b1 := seq[2*k%len(seq)], seq[(2*k+1)%len(seq)]
			ref[d*perSym+k] = complex((1-2*float64(b0))/math.Sqrt2, (1-2*float64(b1))/math.Sqrt2)
		}
	}
	c.dmrs[key] = ref
	return ref
}

// Plan is the decode context of one (CORESET, slot, payload size): the
// CORESET's RE table, the slot's DMRS reference and the polar code of
// each aggregation level (each looked up on first use), and its own
// LLR and polar scratch. Resolve compares its key and re-resolves only
// what changed, so a blind decoder resolves at the top of each pass and
// then decodes every candidate without a map lookup. The zero Plan is
// ready for Resolve. A Plan belongs to the goroutine that owns its Codec.
type Plan struct {
	c           *Codec
	cs          phy.CORESET
	slot        int
	payloadBits int

	tab   *table
	ref   []complex128
	codes [len(phy.AggregationLevels)]*polar.Code
	errs  [len(phy.AggregationLevels)]error

	llr []float64
	ws  polar.Workspace
}

// Resolve points p at codec c's caches for CORESET cs in slot (the
// slot-in-frame index the DMRS depends on) with payloadBits-bit DCIs.
func (p *Plan) Resolve(c *Codec, cs phy.CORESET, slot, payloadBits int) {
	if p.c != c || p.payloadBits != payloadBits {
		p.codes, p.errs = [len(p.codes)]*polar.Code{}, [len(p.errs)]error{}
	}
	if p.c != c || p.cs != cs {
		p.tab = c.table(cs)
	}
	if p.c != c || p.cs != cs || p.slot != slot {
		p.ref = nil // looked up by the first DMRS correlation
	}
	p.c, p.cs, p.slot, p.payloadBits = c, cs, slot, payloadBits
}

// DecodeInto runs the inverse chain on one candidate and writes the
// hard-decision block (payload || CRC24) into dst, reused when its
// capacity covers payloadBits+24 bits. One pass over the candidate's
// data REs, read off the grid through the CORESET's RE table, demaps
// each to its two QPSK LLRs and descrambles them in the LLR domain (a
// scrambling bit of 1 flips the sign) into the polar decoder's input,
// which the polar decoder then rate-recovers and decodes.
func (p *Plan) DecodeInto(dst []uint8, g *phy.Grid, cand phy.Candidate, n0 float64) ([]uint8, error) {
	i := phy.ALIndex(cand.AggLevel)
	if i < 0 {
		return nil, fmt.Errorf("pdcch: aggregation level %d", cand.AggLevel)
	}
	if p.codes[i] == nil && p.errs[i] == nil {
		p.codes[i], p.errs[i] = p.c.code(p.payloadBits+24, cand.AggLevel*phy.BitsPerCCE)
	}
	pc := p.codes[i]
	if pc == nil {
		return nil, p.errs[i]
	}
	data := p.tab.span(p.cs, cand.AggLevel, cand.StartCCE).data
	if cap(p.llr) < 2*len(data) {
		// Sized once for the largest candidate.
		p.llr = make([]float64, max(2*len(data), maxE))
	}
	llr := p.llr[:2*len(data)]
	frontEnd(llr, g, data, p.c.scrambling(pc.E)[:len(llr)], n0)
	return pc.DecodeWith(&p.ws, dst, llr), nil
}

// frontEnd writes the descrambled QPSK LLRs of the data REs into llr
// (two per RE) in one pass, each RE read once off the grid: the polar
// decoder's input, which it rate-recovers itself. scr holds the
// scrambling bits, one per LLR.
func frontEnd(llr []float64, g *phy.Grid, data []phy.RE, scr []uint8, n0 float64) {
	samples, width := g.Samples(), g.Width()
	scale := modulation.QPSKScale(n0)
	for k, re := range data {
		i, q := modulation.QPSKLLR(samples[re.Symbol*width+re.Subcarrier], scale)
		llr[2*k] = bits.DescrambleLLR(i, scr[2*k])
		llr[2*k+1] = bits.DescrambleLLR(q, scr[2*k+1])
	}
}

// OccupiedCCEsInto sweeps the plan's CORESET and writes, per CCE, whether
// its DMRS correlation clears DMRSThreshold into dst (reused when its
// capacity covers the CORESET).
func (p *Plan) OccupiedCCEsInto(dst []bool, g *phy.Grid) []bool {
	n := p.cs.NumCCE()
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = p.dmrsMetric(g, 1, i) >= DMRSThreshold
	}
	return dst
}

// dmrsMetric correlates the pilot REs of the al CCEs from cce against
// the slot's DMRS reference.
func (p *Plan) dmrsMetric(g *phy.Grid, al, cce int) float64 {
	if p.ref == nil {
		p.ref = p.c.dmrsRef(p.cs, p.slot)
	}
	sp := p.tab.span(p.cs, al, cce)
	var corr complex128
	var energy float64
	for i, re := range sp.dmrs {
		rx := g.At(re.Symbol, re.Subcarrier)
		r := p.ref[sp.refIdx[i]]
		corr += rx * complex(real(r), -imag(r))
		energy += real(rx)*real(rx) + imag(rx)*imag(rx)
	}
	n := float64(len(sp.dmrs))
	if energy == 0 {
		return 0
	}
	// Normalise by sqrt(total energy * reference energy): |rho| <= 1.
	mag := math.Sqrt(real(corr)*real(corr) + imag(corr)*imag(corr))
	return mag / math.Sqrt(energy*n)
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
		return err
	}
	coded := pc.Encode(block)
	scr := c.scrambling(len(coded))
	for i := range coded {
		coded[i] ^= scr[i]
	}
	syms := modulation.Map(modulation.QPSK, coded)
	sp := c.table(cs).span(cs, cand.AggLevel, cand.StartCCE)
	if len(syms) != len(sp.data) {
		return fmt.Errorf("pdcch: %d symbols for %d REs", len(syms), len(sp.data))
	}
	for i, re := range sp.data {
		g.Set(re.Symbol, re.Subcarrier, syms[i])
	}
	ref := c.dmrsRef(cs, slot)
	for i, re := range sp.dmrs {
		g.Set(re.Symbol, re.Subcarrier, ref[sp.refIdx[i]])
	}
	return nil
}

// DMRSThreshold is the DMRS correlation (Plan.dmrsMetric) above which a
// candidate is worth a polar decode. Chosen so noise-only candidates are
// rejected with high probability while transmissions at usable SNRs pass.
const DMRSThreshold = 0.5

// OccupiedCCEsInto scans the CORESET and returns, per CCE, whether its
// DMRS correlation clears the detection threshold. It writes into dst
// (reused when its capacity covers the CORESET; nil allocates), so the
// per-slot occupancy sweep does not allocate at steady state. It is Plan.OccupiedCCEsInto in the Codec's
// own Plan.
func (c *Codec) OccupiedCCEsInto(dst []bool, g *phy.Grid, cs phy.CORESET, slot int) []bool {
	c.plan.Resolve(c, cs, slot, c.plan.payloadBits)
	return c.plan.OccupiedCCEsInto(dst, g)
}

// PayloadFits reports whether a payload of the given size can be carried
// at the aggregation level at all (a polar code for it exists). The
// blind decoder skips infeasible positions without counting them as
// decode failures: no transmission is possible there.
func PayloadFits(payloadBits, aggLevel int) bool {
	return polar.Feasible(payloadBits+24, aggLevel*phy.BitsPerCCE)
}

// DecodeCandidateInto runs the inverse chain on one candidate and
// returns the hard-decision block (payload || CRC24) of the hypothesised
// payload size. The caller verifies the CRC (with a known RNTI) or
// recovers the RNTI from it. n0 is the receiver's noise variance
// estimate. The block is written into dst (reused when its capacity
// covers payloadBits+24 bits; nil allocates). It is
// Plan.DecodeInto in the Codec's own Plan, so with a warm cache the call
// performs no heap allocation.
func (c *Codec) DecodeCandidateInto(dst []uint8, g *phy.Grid, cs phy.CORESET, cand phy.Candidate, slot int, payloadBits int, n0 float64) ([]uint8, error) {
	c.plan.Resolve(c, cs, slot, payloadBits)
	return c.plan.DecodeInto(dst, g, cand, n0)
}
