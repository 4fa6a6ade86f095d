package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strconv"
)

// The consumer side of the JSONL wire format. The producers are bus
// sinks (bus.JSONLSink writes the log file of the paper's Fig. 4,
// bus.TCPServer serves the §6 feedback path); each writes one record
// per line, AppendJSON's encoding followed by '\n'. ReadAll and Client
// read that contract and nothing looser:
//
//   - A stream is a sequence of lines, each ended by '\n' (the last may
//     end at EOF instead). Lines holding only spaces, tabs and '\r' are
//     skipped. Every other line is exactly one JSON record; a value
//     split across lines, or two on one line, is an error.
//   - A line is first given to a strict parser that takes AppendJSON's
//     canonical form only: Record's keys in declaration order (new_ue
//     and common optional), no whitespace, JSON number grammar, and
//     strings of printable ASCII without escapes. The four DCI format
//     names are interned, so a canonical line costs no allocation.
//   - A line the strict parser declines goes to json.Unmarshal, so the
//     record read from any line, or the error, is json.Unmarshal's.
//   - A line longer than maxLineBytes (1 MiB) is an error rather than
//     an unbounded buffer.
//
// The first error ends the stream: later reads return it again.

// maxLineBytes bounds one JSONL line, its '\n' aside. A canonical
// record is about 300 bytes.
const maxLineBytes = 1 << 20

var errLineTooLong = fmt.Errorf("telemetry: line longer than %d bytes", maxLineBytes)

// lineReader reads records one line at a time. Lines that fit its
// buffer are parsed in place; longer ones are gathered in long.
type lineReader struct {
	br   *bufio.Reader
	long []byte
	err  error // sticky
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// next reads the next non-blank line into *rec. At the end of a clean
// stream it returns io.EOF.
func (l *lineReader) next(rec *Record) error {
	if l.err != nil {
		return l.err
	}
	for {
		line, err := l.line()
		if err != nil {
			l.err = err
			return err
		}
		if blank(line) {
			continue
		}
		if err := parseLine(line, rec); err != nil {
			l.err = fmt.Errorf("telemetry: %w", err)
			return l.err
		}
		return nil
	}
}

// line returns the next line without its '\n'. The slice is valid
// until the next call.
func (l *lineReader) line() ([]byte, error) {
	line, err := l.br.ReadSlice('\n')
	if err == nil {
		return line[:len(line)-1], nil
	}
	l.long = append(l.long[:0], line...)
	for err == bufio.ErrBufferFull {
		if len(l.long) > maxLineBytes {
			return nil, errLineTooLong
		}
		line, err = l.br.ReadSlice('\n')
		l.long = append(l.long, line...)
	}
	switch {
	case err == nil:
		l.long = l.long[:len(l.long)-1]
	case err == io.EOF && len(l.long) > 0:
		// The last line, unterminated; the next call sees EOF.
	default:
		return nil, err
	}
	if len(l.long) > maxLineBytes {
		return nil, errLineTooLong
	}
	return l.long, nil
}

func blank(line []byte) bool {
	for _, b := range line {
		if b != ' ' && b != '\t' && b != '\r' {
			return false
		}
	}
	return true
}

// parseLine decodes one line into *rec, which it overwrites: the strict
// parse when the line is canonical, json.Unmarshal's result otherwise.
// json.Unmarshal gets a record of its own, so rec does not escape and a
// caller's record stays on its stack.
func parseLine(line []byte, rec *Record) error {
	if parseStrict(line, rec) {
		return nil
	}
	var r Record
	err := json.Unmarshal(line, &r)
	*rec = r
	return err
}

// ReadAll parses a JSONL telemetry stream back into records.
func ReadAll(r io.Reader) ([]Record, error) {
	l := newLineReader(r)
	var out []Record
	for {
		var rec Record
		if err := l.next(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Client subscribes to a telemetry TCP stream (bus.TCPServer) and
// decodes it.
type Client struct {
	conn net.Conn
	lr   *lineReader
}

// Dial connects to a telemetry server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &Client{conn: conn, lr: newLineReader(conn)}, nil
}

// Next blocks for the next record. A stream the server closed cleanly
// ends in io.EOF.
func (c *Client) Next() (Record, error) {
	var rec Record
	if err := c.lr.next(&rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Close disconnects.
func (c *Client) Close() error { return c.conn.Close() }

// strictParser walks one canonical line. Each method consumes one
// token and reports whether it matched; on a mismatch the caller gives
// the line to json.Unmarshal.
type strictParser struct {
	b []byte
	i int
}

// parseStrict decodes a line in AppendJSON's canonical form into *rec
// and reports whether it did. When it returns true, json.Unmarshal
// would produce the same record from the line.
func parseStrict(line []byte, rec *Record) bool {
	p := strictParser{b: line}
	var r Record
	ok := p.lit(`{"slot_idx":`) && p.int(&r.SlotIdx) &&
		p.lit(`,"sfn":`) && p.int(&r.SFN) &&
		p.lit(`,"slot":`) && p.int(&r.Slot) &&
		p.lit(`,"rnti":`) && p.uint16(&r.RNTI) &&
		p.lit(`,"downlink":`) && p.bool(&r.Downlink) &&
		p.lit(`,"dci":`) && p.str(&r.Format) &&
		p.lit(`,"tbs":`) && p.int(&r.TBS) &&
		p.lit(`,"nof_prb":`) && p.int(&r.NumPRB) &&
		p.lit(`,"nof_reg":`) && p.int(&r.REGs) &&
		p.lit(`,"nof_re":`) && p.int(&r.NRE) &&
		p.lit(`,"mcs":`) && p.int(&r.MCS) &&
		p.lit(`,"qm":`) && p.int(&r.Qm) &&
		p.lit(`,"code_rate":`) && p.float(&r.R) &&
		p.lit(`,"agg_level":`) && p.int(&r.AggLevel) &&
		p.lit(`,"cce":`) && p.int(&r.StartCCE) &&
		p.lit(`,"harq_id":`) && p.int(&r.HARQID) &&
		p.lit(`,"ndi":`) && p.uint8(&r.NDI) &&
		p.lit(`,"rv":`) && p.int(&r.RV) &&
		p.lit(`,"retx":`) && p.bool(&r.IsRetx) &&
		(!p.lit(`,"new_ue":`) || p.bool(&r.NewUE)) &&
		(!p.lit(`,"common":`) || p.bool(&r.Common)) &&
		p.lit(`,"t_ms":`) && p.float(&r.TMs) &&
		p.lit(`}`) && p.i == len(p.b)
	if ok {
		*rec = r
	}
	return ok
}

// lit consumes s if the line continues with it.
func (p *strictParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

func (p *strictParser) bool(v *bool) bool {
	if p.lit("true") {
		*v = true
		return true
	}
	*v = false
	return p.lit("false")
}

// digits consumes a JSON integer, -?(0|[1-9][0-9]*), of at most 18
// digits, so its magnitude fits an int64 unchecked. A fraction or an
// exponent that follows fails the next token, and json.Unmarshal
// refuses those for an integer field too.
func (p *strictParser) digits() (n int64, neg, ok bool) {
	if p.i < len(p.b) && p.b[p.i] == '-' {
		neg = true
		p.i++
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		n = n*10 + int64(p.b[p.i]-'0')
		p.i++
	}
	nd := p.i - start
	if nd == 0 || nd > 18 || (nd > 1 && p.b[start] == '0') {
		return 0, false, false
	}
	if neg {
		n = -n
	}
	return n, neg, true
}

func (p *strictParser) int(v *int) bool {
	n, _, ok := p.digits()
	*v = int(n)
	return ok && int64(*v) == n
}

// uint16 and uint8 decline a minus sign, "-0" included, and values out
// of range: json.Unmarshal fails on both.
func (p *strictParser) uint16(v *uint16) bool {
	n, neg, ok := p.digits()
	*v = uint16(n)
	return ok && !neg && n <= 0xFFFF
}

func (p *strictParser) uint8(v *uint8) bool {
	n, neg, ok := p.digits()
	*v = uint8(n)
	return ok && !neg && n <= 0xFF
}

// float consumes a JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it as
// json.Unmarshal does; it declines a number ParseFloat refuses.
func (p *strictParser) float(v *float64) bool {
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	lead := p.i
	if p.run() == 0 || (p.i-lead > 1 && p.b[lead] == '0') {
		return false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if p.run() == 0 {
			return false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if p.run() == 0 {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	*v = f
	return err == nil
}

// run consumes decimal digits and returns how many.
func (p *strictParser) run() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// formatNames are the strings dci.Format renders, interned so a strict
// parse of a canonical line does not allocate.
var formatNames = [...]string{"0_0", "0_1", "1_0", "1_1"}

// str consumes a string of printable ASCII other than '"' and '\\':
// json.Unmarshal reads such a string as its bytes. Escapes, control
// characters and non-ASCII bytes decline.
func (p *strictParser) str(v *string) bool {
	if !p.lit(`"`) {
		return false
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != '"' {
		if c := p.b[p.i]; c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
		p.i++
	}
	if p.i == len(p.b) {
		return false
	}
	s := p.b[start:p.i]
	p.i++
	for _, name := range formatNames {
		if string(s) == name {
			*v = name
			return true
		}
	}
	*v = string(s)
	return true
}
