package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"nrscope/internal/phy"
	"nrscope/internal/raceflag"
)

// wireRecords spans the codec's cases: omitempty flags set and unset,
// floats in 'f' and 'e' form, the four interned formats, a string that
// needs HTML escaping, and a Ref that does not serialise.
func wireRecords() []Record {
	recs := make([]Record, 8)
	formats := []string{"0_0", "0_1", "1_0", "1_1"}
	for i := range recs {
		recs[i] = Record{
			SlotIdx: 1000 + i, SFN: 100 + i, Slot: i, RNTI: uint16(0x4601 + i),
			Downlink: i%2 == 0, Format: formats[i%4], TBS: 8192 * i, NumPRB: 52 - i,
			REGs: 36, NRE: 4000 + i, MCS: 20 + i, Qm: 6, R: 0.4385 + float64(i)/7,
			AggLevel: 1 << (i % 5), StartCCE: i, HARQID: i % 16, NDI: uint8(i % 2),
			RV: i % 4, IsRetx: i%3 == 0, NewUE: i%2 == 0, Common: i%3 == 0,
			TMs: 0.5*float64(i) + 0.125, Ref: phy.SlotRef{SFN: 100 + i, Slot: i},
		}
	}
	recs[5].R, recs[5].TMs = 1e-7, 1e21
	recs[6].R, recs[6].TMs = math.Copysign(0, -1), 123456789.5
	recs[7].Format = "<&> "
	return recs
}

func marshalLine(t testing.TB, r *Record) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	recs := wireRecords()
	extra := []string{"", "a\"b\\c", "\b\f\n\r\t\x00\x1f\x7f", "\xe2\x80\xa8\xe2\x80\xa9", "\xff\xfe ok", "é€𝄞", "<script>"}
	for _, f := range extra {
		r := recs[0]
		r.Format = f
		recs = append(recs, r)
	}
	for i := range recs {
		got, err := AppendJSON(nil, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalLine(t, &recs[i]); !bytes.Equal(got, want) {
			t.Errorf("record %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestAppendJSONRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []Record{{R: v}, {TMs: v}} {
			dst := []byte("keep")
			got, err := AppendJSON(dst, &r)
			if err == nil {
				t.Fatalf("AppendJSON(code_rate %v, t_ms %v) = %s, want an error", r.R, r.TMs, got)
			}
			if string(got) != "keep" {
				t.Errorf("AppendJSON changed dst on error: %q", got)
			}
		}
	}
}

// FuzzAppendJSONMatchesMarshal: AppendJSON and json.Marshal agree on
// every record, in bytes and in whether they fail.
func FuzzAppendJSONMatchesMarshal(f *testing.F) {
	f.Add(1000, -3, uint16(0x4601), uint8(1), 0.4385, 0.125, "1_1", uint8(0))
	f.Add(0, 0, uint16(0), uint8(0), 0.0, 0.0, "", uint8(0xff))
	f.Add(math.MaxInt64, math.MinInt64, uint16(0xffff), uint8(0xff), 1e-7, 1e21, "<&>", uint8(3))
	f.Add(1, 2, uint16(3), uint8(4), math.SmallestNonzeroFloat64, math.MaxFloat64, "\xe2\x80\xa8\xff\x01", uint8(5))
	f.Add(1, 2, uint16(3), uint8(4), math.Copysign(0, -1), -9.999999e-7, "\"\\\b\f\n\r\t", uint8(6))
	f.Add(1, 2, uint16(3), uint8(4), math.NaN(), 1.0, "0_0", uint8(7))
	f.Add(1, 2, uint16(3), uint8(4), 0.5, math.Inf(-1), "0_1", uint8(8))
	f.Fuzz(func(t *testing.T, a, b int, rnti uint16, ndi uint8, r, tms float64, format string, flags uint8) {
		rec := Record{
			SlotIdx: a, SFN: b, Slot: a ^ b, RNTI: rnti, Downlink: flags&1 != 0,
			Format: format, TBS: -a, NumPRB: b / 3, REGs: a % 1000, NRE: b % 7,
			MCS: int(ndi), Qm: int(flags), R: r, AggLevel: int(rnti), StartCCE: -b,
			HARQID: a >> 7, NDI: ndi, RV: int(flags >> 4), IsRetx: flags&2 != 0,
			NewUE: flags&4 != 0, Common: flags&8 != 0, TMs: tms,
		}
		got, gotErr := AppendJSON(nil, &rec)
		want, wantErr := json.Marshal(&rec)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSON error %v, json.Marshal error %v", gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("\n got %s\nwant %s", got, want)
		}
	})
}

// FuzzParseLineMatchesUnmarshal: for any one line, the reader returns
// json.Unmarshal's record, or fails where json.Unmarshal fails; and
// whatever the strict parser accepts, json.Unmarshal accepts as the
// same record.
func FuzzParseLineMatchesUnmarshal(f *testing.F) {
	recs := wireRecords()
	canon, _ := AppendJSON(nil, &recs[1])
	f.Add(canon)
	for _, r := range recs[5:] {
		line, _ := AppendJSON(nil, &r)
		f.Add(line)
	}
	s := string(canon)
	for _, v := range []string{
		strings.Replace(s, ":", ": ", 3),                      // whitespace
		strings.Replace(s, `"sfn"`, `"SFN"`, 1),               // case-folded key
		strings.Replace(s, `"rnti":17922`, `"rnti":-0`, 1),    // -0 into a uint
		strings.Replace(s, `"rnti":17922`, `"rnti":70000`, 1), // out of range
		strings.Replace(s, `"ndi":1`, `"ndi":01`, 1),          // leading zero
		strings.Replace(s, `"tbs":8192`, `"tbs":8.192e3`, 1),  // float into an int
		strings.Replace(s, `"tbs":8192`, `"tbs":1234567890123456789`, 1),
		strings.Replace(s, `"t_ms":0.625`, `"t_ms":1e400`, 1),         // out of float range
		strings.Replace(s, `"t_ms":0.625`, `"t_ms":+1`, 1),            // no '+' in JSON
		strings.Replace(s, `"t_ms":0.625`, `"t_ms":1.`, 1),            // empty fraction
		strings.Replace(s, `"dci":"0_1"`, `"dci":"\u0030_1"`, 1),      // escape
		strings.Replace(s, `"dci":"0_1"`, "\"dci\":\"\xff\"", 1),      // invalid UTF-8
		strings.Replace(s, `"dci":"0_1"`, `"dci":null`, 1),            // null
		strings.Replace(s, `"retx":false`, `"retx":false,"x":[1]`, 1), // unknown field
		strings.Replace(s, `"retx":false`, `"retx":false,"new_ue":false`, 1),
		strings.Replace(s, `,"slot":1`, ``, 1), // missing key
		s + " ", s + "\r", s + s, s[:len(s)/2], "null", "{}", "[]", "",
	} {
		f.Add([]byte(v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		line, _, _ := bytes.Cut(data, []byte("\n"))
		var strict Record
		strictOK := parseStrict(line, &strict)
		var want Record
		wantErr := json.Unmarshal(line, &want)
		if strictOK && (wantErr != nil || strict != want) {
			t.Fatalf("strict parse %+v, json.Unmarshal %+v (error %v)", strict, want, wantErr)
		}
		got, err := ReadAll(bytes.NewReader(line))
		if blank(line) {
			if len(got) != 0 || err != nil {
				t.Fatalf("blank line read as %+v, error %v", got, err)
			}
			return
		}
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("reader error %v, json.Unmarshal error %v", err, wantErr)
		}
		if wantErr == nil && (len(got) != 1 || got[0] != want) {
			t.Fatalf("reader gave %+v, json.Unmarshal %+v", got, want)
		}
	})
}

// TestParseStrictTakesCanonicalLines: the codec's own lines never reach
// the json.Unmarshal fallback, "<&> " (which AppendJSON escapes) aside.
func TestParseStrictTakesCanonicalLines(t *testing.T) {
	for i, r := range wireRecords() {
		line, err := AppendJSON(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		var got Record
		ok := parseStrict(line, &got)
		if r.Format == "<&> " {
			if ok {
				t.Errorf("strict parser took an escaped string: %s", line)
			}
			continue
		}
		r.Ref = phy.SlotRef{}
		if !ok || got != r {
			t.Errorf("record %d: strict parse ok=%v %+v, want %+v", i, ok, got, r)
		}
	}
}

func TestReadAllLines(t *testing.T) {
	recs := wireRecords()
	var stream []byte
	for i := range recs {
		stream, _ = AppendJSON(stream, &recs[i])
		stream = append(stream, "\n \t\r\n\n"...) // blank lines between records
	}
	stream = stream[:len(stream)-len("\n \t\r\n\n")] // last line unterminated
	got, err := ReadAll(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		recs[i].Ref = phy.SlotRef{}
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v, want %+v", i, got[i], recs[i])
		}
	}

	// Two records on one line, or one split across two, are errors;
	// the records before them are kept.
	line, _ := AppendJSON(nil, &recs[0])
	for name, bad := range map[string]string{
		"two on a line": string(line) + "\n" + string(line) + string(line) + "\n",
		"split":         string(line) + "\n" + strings.Replace(string(line), ",", ",\n", 1) + "\n",
	} {
		got, err := ReadAll(strings.NewReader(bad))
		if err == nil || len(got) != 1 {
			t.Errorf("%s: read %d records, error %v; want 1 and an error", name, len(got), err)
		}
	}
}

// TestReadAllLongLines: a line longer than the reader's buffer is
// gathered whole; one longer than maxLineBytes is an error, not an
// unbounded buffer.
func TestReadAllLongLines(t *testing.T) {
	long := Record{Format: strings.Repeat("x", 200<<10), R: 0.5}
	line, err := AppendJSON(nil, &long)
	if err != nil {
		t.Fatal(err)
	}
	short := Record{SlotIdx: 7, Format: "1_1"}
	next, _ := AppendJSON(nil, &short)
	stream := append(append(append(line, '\n'), next...), '\n')
	got, err := ReadAll(bytes.NewReader(stream))
	if err != nil || len(got) != 2 || got[0] != long || got[1] != short {
		t.Fatalf("read %d records (error %v), want the long one and the short one", len(got), err)
	}

	over := Record{Format: strings.Repeat("y", maxLineBytes)}
	line, _ = AppendJSON(nil, &over)
	got, err = ReadAll(bytes.NewReader(append(append(next, '\n'), line...)))
	if !errors.Is(err, errLineTooLong) || len(got) != 1 {
		t.Fatalf("over-long line: read %d records, error %v; want 1 and errLineTooLong", len(got), err)
	}
	atCap := []byte(`{"dci":"` + strings.Repeat("z", maxLineBytes-len(`{"dci":""}`)) + `"}`)
	if got, err := ReadAll(bytes.NewReader(atCap)); err != nil || len(got) != 1 {
		t.Fatalf("line of exactly maxLineBytes: read %d records, error %v", len(got), err)
	}
}

// cycleReader serves data over and over without allocating.
type cycleReader struct {
	data []byte
	off  int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	n := copy(p, c.data[c.off:])
	c.off = (c.off + n) % len(c.data)
	return n, nil
}

// TestLineReaderAllocFree: once warm, Client.Next reads a canonical
// record without allocating.
func TestLineReaderAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc assertions are meaningless")
	}
	var stream []byte
	recs := wireRecords()[:7] // the escaped "<&> " takes the fallback
	for i := range recs {
		stream, _ = AppendJSON(stream, &recs[i])
		stream = append(stream, '\n')
	}
	c := &Client{lr: newLineReader(&cycleReader{data: stream})}
	read := func() {
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for range recs {
		read()
	}
	if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
		t.Errorf("%v allocs per canonical record, want 0", allocs)
	}
}

// BenchmarkRecordWire: one record through the hand-written codec and
// through encoding/json, each way.
func BenchmarkRecordWire(b *testing.B) {
	r := wireRecords()[3]
	line, _ := AppendJSON(nil, &r)
	b.Run("op=encode/codec=append", func(b *testing.B) {
		b.ReportAllocs()
		var dst []byte
		for i := 0; i < b.N; i++ {
			dst, _ = AppendJSON(dst[:0], &r)
		}
	})
	b.Run("op=encode/codec=encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			_ = enc.Encode(&r)
		}
	})
	b.Run("op=parse/codec=strict", func(b *testing.B) {
		b.ReportAllocs()
		var rec Record
		for i := 0; i < b.N; i++ {
			if err := parseLine(line, &rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("op=parse/codec=encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		var rec Record
		for i := 0; i < b.N; i++ {
			rec = Record{}
			if err := json.Unmarshal(line, &rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
