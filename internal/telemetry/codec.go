package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The record codec: AppendJSON writes the one line per record that
// every JSONL producer emits, and parseLine (stream.go) reads it back.
// Both are written out field by field so the wire costs no reflection;
// AppendJSON's bytes are json.Marshal's for every record json.Marshal
// accepts.

// AppendJSON appends r's JSON encoding, without a trailing newline, to
// dst: the fields in Record's declaration order, new_ue and common
// only when set, floats and strings in encoding/json's form (HTML-safe
// escaping included). A non-finite code_rate or t_ms has no JSON form;
// AppendJSON then returns dst unchanged and an error, as json.Marshal
// does.
func AppendJSON(dst []byte, r *Record) ([]byte, error) {
	if !r.Encodable() {
		return dst, fmt.Errorf("telemetry: unsupported value: code_rate %v, t_ms %v", r.R, r.TMs)
	}
	dst = append(dst, `{"slot_idx":`...)
	dst = strconv.AppendInt(dst, int64(r.SlotIdx), 10)
	dst = append(dst, `,"sfn":`...)
	dst = strconv.AppendInt(dst, int64(r.SFN), 10)
	dst = append(dst, `,"slot":`...)
	dst = strconv.AppendInt(dst, int64(r.Slot), 10)
	dst = append(dst, `,"rnti":`...)
	dst = strconv.AppendUint(dst, uint64(r.RNTI), 10)
	dst = append(dst, `,"downlink":`...)
	dst = strconv.AppendBool(dst, r.Downlink)
	dst = append(dst, `,"dci":`...)
	dst = appendString(dst, r.Format)
	dst = append(dst, `,"tbs":`...)
	dst = strconv.AppendInt(dst, int64(r.TBS), 10)
	dst = append(dst, `,"nof_prb":`...)
	dst = strconv.AppendInt(dst, int64(r.NumPRB), 10)
	dst = append(dst, `,"nof_reg":`...)
	dst = strconv.AppendInt(dst, int64(r.REGs), 10)
	dst = append(dst, `,"nof_re":`...)
	dst = strconv.AppendInt(dst, int64(r.NRE), 10)
	dst = append(dst, `,"mcs":`...)
	dst = strconv.AppendInt(dst, int64(r.MCS), 10)
	dst = append(dst, `,"qm":`...)
	dst = strconv.AppendInt(dst, int64(r.Qm), 10)
	dst = append(dst, `,"code_rate":`...)
	dst = appendFloat(dst, r.R)
	dst = append(dst, `,"agg_level":`...)
	dst = strconv.AppendInt(dst, int64(r.AggLevel), 10)
	dst = append(dst, `,"cce":`...)
	dst = strconv.AppendInt(dst, int64(r.StartCCE), 10)
	dst = append(dst, `,"harq_id":`...)
	dst = strconv.AppendInt(dst, int64(r.HARQID), 10)
	dst = append(dst, `,"ndi":`...)
	dst = strconv.AppendUint(dst, uint64(r.NDI), 10)
	dst = append(dst, `,"rv":`...)
	dst = strconv.AppendInt(dst, int64(r.RV), 10)
	dst = append(dst, `,"retx":`...)
	dst = strconv.AppendBool(dst, r.IsRetx)
	if r.NewUE {
		dst = append(dst, `,"new_ue":true`...)
	}
	if r.Common {
		dst = append(dst, `,"common":true`...)
	}
	dst = append(dst, `,"t_ms":`...)
	dst = appendFloat(dst, r.TMs)
	return append(dst, '}'), nil
}

// Encodable reports whether AppendJSON can encode r: JSON has no form
// for a NaN or infinite code_rate or t_ms.
func (r *Record) Encodable() bool { return finite(r.R) && finite(r.TMs) }

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendFloat is encoding/json's float64 form, as ES6 renders a
// number: shortest round-trip digits, 'f' format except 'e' below 1e-6
// or from 1e21 up, and the exponent unpadded (e-7, not e-07).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString is encoding/json's HTML-safe string encoding: quotes,
// backslash, control characters, '<', '>', '&', U+2028 and U+2029 are
// escaped, and each byte of invalid UTF-8 becomes \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// The other control characters, and '<', '>' and '&'.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		// U+2028 LINE SEPARATOR and U+2029 PARAGRAPH SEPARATOR are valid
		// JSON but end a line in JavaScript.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// htmlSafe reports whether the ASCII byte b goes into an HTML-safe JSON
// string as itself.
func htmlSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}
