//go:build !race

package raceflag

// Enabled reports whether the build carries the race detector. Only
// tests read it: it exists so allocation-count tests can skip.
const Enabled = false
