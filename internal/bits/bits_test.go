package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.WriteUint(0b1011, 4)
	w.WriteBool(true)
	w.WriteBool(false)
	w.WriteBit(1)
	w.WriteUint(0xDEAD, 16)
	if w.Len() != 23 {
		t.Fatalf("Len = %d, want 23", w.Len())
	}
	r := NewReader(w.Bits())
	if got := r.ReadUint(4); got != 0b1011 {
		t.Errorf("ReadUint(4) = %#b, want 1011", got)
	}
	if !r.ReadBool() || r.ReadBool() {
		t.Errorf("ReadBool sequence wrong")
	}
	if got := r.ReadBit(); got != 1 {
		t.Errorf("ReadBit = %d, want 1", got)
	}
	if got := r.ReadUint(16); got != 0xDEAD {
		t.Errorf("ReadUint(16) = %#x, want 0xdead", got)
	}
	if left := len(r.bits) - r.pos; left != 0 {
		t.Errorf("%d bits left unread, want 0", left)
	}
	if r.Err() != nil {
		t.Errorf("Err = %v, want nil", r.Err())
	}
}

func TestReaderPastEnd(t *testing.T) {
	r := NewReader([]uint8{1, 0})
	r.ReadUint(2)
	if got := r.ReadBit(); got != 0 {
		t.Errorf("past-end ReadBit = %d, want 0", got)
	}
	if r.Err() == nil {
		t.Error("expected sticky error after reading past end")
	}
	if left := len(r.bits) - r.pos; left != 0 {
		t.Errorf("%d bits left unread after error, want 0", left)
	}
}

func TestWriteUintWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WriteUint(65) did not panic")
		}
	}()
	NewWriter(0).WriteUint(0, 65)
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(data []byte, extra uint8) bool {
		n := len(data) * 8
		if n == 0 {
			return true
		}
		n -= int(extra % 8) // exercise non-byte-aligned lengths
		b := Unpack(data, n)
		packed := Pack(b)
		back := Unpack(packed, n)
		for i := range b {
			if b[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestToFromUintRoundTrip(t *testing.T) {
	f := func(v uint64, width uint8) bool {
		n := int(width%64) + 1
		masked := v & (1<<uint(n) - 1)
		return ToUint(FromUint(masked, n)) == masked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCRCKindString(t *testing.T) {
	want := map[CRCKind]string{CRC24A: "CRC24A", CRC24C: "CRC24C", CRC16: "CRC16", CRC11: "CRC11"}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), w)
		}
	}
}

func TestCheckCRCShortBlock(t *testing.T) {
	if _, ok := CheckCRC(CRC24A, make([]uint8, 10)); ok {
		t.Error("block shorter than CRC accepted")
	}
	if _, ok := CheckDCICRC(make([]uint8, 5), 1); ok {
		t.Error("DCI block shorter than CRC accepted")
	}
}

func TestUnpackPanicsWhenTooLong(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Unpack beyond data did not panic")
		}
	}()
	Unpack([]byte{0xFF}, 9)
}

func TestToUintPanicsOver64(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ToUint over 64 bits did not panic")
		}
	}()
	ToUint(make([]uint8, 65))
}

func TestCRCLengths(t *testing.T) {
	for _, k := range []CRCKind{CRC24A, CRC24C, CRC16, CRC11} {
		if got := len(CRC(k, []uint8{1, 0, 1})); got != k.Len() {
			t.Errorf("%v: CRC length %d, want %d", k, got, k.Len())
		}
	}
}

func TestCRCDetectsSingleBitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []CRCKind{CRC24A, CRC24C, CRC16, CRC11} {
		data := randomBits(rng, 100)
		block := AttachCRC(k, data)
		if _, ok := CheckCRC(k, block); !ok {
			t.Fatalf("%v: clean block failed CRC", k)
		}
		for trial := 0; trial < 50; trial++ {
			i := rng.Intn(len(block))
			block[i] ^= 1
			if _, ok := CheckCRC(k, block); ok {
				t.Errorf("%v: single-bit error at %d not detected", k, i)
			}
			block[i] ^= 1
		}
	}
}

func TestCRCZeroPayloadNonDegenerate(t *testing.T) {
	// A plain CRC of all-zero data is all-zero; the DCI ones-prepending
	// must break that degeneracy (that is its purpose in 38.212 §7.3.2).
	zeros := make([]uint8, 40)
	plain := CRC(CRC24C, zeros)
	if ToUint(plain) != 0 {
		t.Fatalf("plain CRC of zeros = %#x, want 0", ToUint(plain))
	}
	block := AttachDCICRC(zeros, 0)
	crc := block[len(block)-24:]
	if ToUint(crc) == 0 {
		t.Error("DCI CRC of zeros is zero; ones-prepending missing")
	}
}

func TestAttachCheckDCICRC(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		payload := randomBits(rng, 30+rng.Intn(50))
		rnti := uint16(rng.Intn(0x10000))
		block := AttachDCICRC(payload, rnti)
		if len(block) != len(payload)+24 {
			t.Fatalf("block length %d, want %d", len(block), len(payload)+24)
		}
		if _, ok := CheckDCICRC(block, rnti); !ok {
			t.Fatal("CheckDCICRC failed with correct RNTI")
		}
		if _, ok := CheckDCICRC(block, rnti^0x0001); ok {
			t.Error("CheckDCICRC passed with wrong RNTI")
		}
	}
}

func TestRecoverRNTI(t *testing.T) {
	f := func(seed int64, rnti uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := randomBits(rng, 40)
		block := AttachDCICRC(payload, rnti)
		_, got, ok := RecoverRNTI(block)
		return ok && got == rnti
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecoverRNTIRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	payload := randomBits(rng, 40)
	block := AttachDCICRC(payload, 0x4601)
	// Corrupt a payload bit: the unscrambled high 8 CRC bits should no
	// longer match, so recovery must fail (this is the paper's built-in
	// verification, §3.1.2).
	rejected := 0
	for i := 0; i < len(payload); i++ {
		block[i] ^= 1
		if _, _, ok := RecoverRNTI(block); !ok {
			rejected++
		}
		block[i] ^= 1
	}
	// A corrupted payload changes the full CRC; the 8 visible check bits
	// catch it with probability 1 - 2^-8 per pattern. Over 40 positions
	// expect at most a couple of misses.
	if rejected < len(payload)-3 {
		t.Errorf("only %d/%d corruptions rejected", rejected, len(payload))
	}
}

func TestRecoverRNTIShortBlock(t *testing.T) {
	if _, _, ok := RecoverRNTI(make([]uint8, 10)); ok {
		t.Error("RecoverRNTI accepted a block shorter than the CRC")
	}
}

func TestGoldSequenceKnownProperties(t *testing.T) {
	// Distinct cinit values must give distinct sequences.
	a := GoldSequence(0x12345, 256)
	b := GoldSequence(0x12346, 256)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("distinct cinit produced identical Gold sequences")
	}
	// Sequences must be deterministic.
	c := GoldSequence(0x12345, 256)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("Gold sequence not deterministic")
		}
	}
}

func TestGoldSequenceBalance(t *testing.T) {
	// Gold sequences are balanced: ones frequency ~ 1/2.
	seq := GoldSequence(0x5A5A5, 10000)
	ones := 0
	for _, b := range seq {
		ones += int(b)
	}
	if ones < 4700 || ones > 5300 {
		t.Errorf("Gold sequence ones = %d/10000, not balanced", ones)
	}
}

func TestScrambleInvolution(t *testing.T) {
	f := func(cinit uint32, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := randomBits(rng, 200)
		orig := append([]uint8(nil), data...)
		ScrambleInPlace(cinit&0x7FFFFFFF, data)
		ScrambleInPlace(cinit&0x7FFFFFFF, data)
		for i := range data {
			if data[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScramblingInits(t *testing.T) {
	if got := PDCCHScramblingInit(0, 500); got != 500 {
		t.Errorf("PDCCHScramblingInit(0,500) = %d, want 500", got)
	}
	if got := PDCCHScramblingInit(0x4601, 500); got != (0x4601<<16+500)&0x7FFFFFFF {
		t.Errorf("PDCCHScramblingInit = %#x", got)
	}
	// DMRS inits must differ across symbols and slots.
	a := PDCCHDMRSInit(0, 0, 1)
	b := PDCCHDMRSInit(0, 1, 1)
	c := PDCCHDMRSInit(1, 0, 1)
	if a == b || a == c || b == c {
		t.Errorf("PDCCHDMRSInit collisions: %d %d %d", a, b, c)
	}
}

func randomBits(rng *rand.Rand, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(2))
	}
	return out
}

func BenchmarkCRC24C(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := randomBits(rng, 60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CRC(CRC24C, data)
	}
}

func BenchmarkGoldSequence(b *testing.B) {
	dst := make([]uint8, 864)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GoldSequenceInto(0x12345, dst)
	}
}
