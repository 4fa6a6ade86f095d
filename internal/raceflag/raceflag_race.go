//go:build race

// Package raceflag exposes whether the race detector is compiled in, so
// allocation-count tests can skip themselves: race instrumentation adds
// heap allocations that testing.AllocsPerRun would otherwise report as
// regressions.
package raceflag

// Enabled reports whether the build carries the race detector. Only
// tests read it: it exists so allocation-count tests can skip.
const Enabled = true
