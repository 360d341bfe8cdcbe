//go:build race

// Package race reports whether the race detector is compiled in, so tests
// whose assertions its instrumentation invalidates, such as allocation
// counts, can skip themselves.
package race

// Enabled is true in a binary built with -race.
const Enabled = true
