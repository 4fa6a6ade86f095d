package phy

import "fmt"

// SlotDirection classifies a slot in the TDD pattern.
type SlotDirection int

// Slot directions. Special slots carry downlink control (so PDCCH is
// still decodable) plus the guard and uplink pilot regions.
const (
	SlotDownlink SlotDirection = iota
	SlotUplink
	SlotSpecial
)

// String implements fmt.Stringer.
func (d SlotDirection) String() string {
	switch d {
	case SlotDownlink:
		return "D"
	case SlotUplink:
		return "U"
	case SlotSpecial:
		return "S"
	default:
		return "?"
	}
}

// TDDPattern is a repeating slot-direction pattern, e.g. the band n41/n48
// cells in the paper use DDDSU-like patterns at 30 kHz SCS. An FDD cell
// is modelled as an all-downlink pattern on the downlink carrier.
type TDDPattern struct {
	pattern []SlotDirection
}

// NewTDDPattern parses a pattern string of D/U/S characters.
func NewTDDPattern(s string) (TDDPattern, error) {
	if len(s) == 0 {
		return TDDPattern{}, fmt.Errorf("phy: empty TDD pattern")
	}
	p := make([]SlotDirection, len(s))
	for i, c := range s {
		switch c {
		case 'D', 'd':
			p[i] = SlotDownlink
		case 'U', 'u':
			p[i] = SlotUplink
		case 'S', 's':
			p[i] = SlotSpecial
		default:
			return TDDPattern{}, fmt.Errorf("phy: bad TDD pattern char %q", c)
		}
	}
	return TDDPattern{pattern: p}, nil
}

// MustTDDPattern is NewTDDPattern for constant patterns; it panics on error.
func MustTDDPattern(s string) TDDPattern {
	p, err := NewTDDPattern(s)
	if err != nil {
		panic(err)
	}
	return p
}

// FDD returns the all-downlink pattern used to model an FDD downlink
// carrier (the T-Mobile n25/n71 cells).
func FDD() TDDPattern { return MustTDDPattern("D") }

// Direction returns the direction of slot index i (absolute slot count).
func (t TDDPattern) Direction(i int) SlotDirection {
	return t.pattern[i%len(t.pattern)]
}

// HasDownlinkData reports whether PDSCH can be scheduled in slot i.
func (t TDDPattern) HasDownlinkData(i int) bool {
	return t.Direction(i) == SlotDownlink
}

// Len returns the pattern period in slots.
func (t TDDPattern) Len() int { return len(t.pattern) }

// String renders the pattern as a D/U/S string.
func (t TDDPattern) String() string {
	out := make([]byte, len(t.pattern))
	for i, d := range t.pattern {
		out[i] = d.String()[0]
	}
	return string(out)
}

// DownlinkDutyCycle returns the fraction of slots that can carry PDSCH.
func (t TDDPattern) DownlinkDutyCycle() float64 {
	n := 0
	for i := range t.pattern {
		if t.pattern[i] == SlotDownlink {
			n++
		}
	}
	return float64(n) / float64(len(t.pattern))
}
