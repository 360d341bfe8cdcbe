//go:build !race

package race

// Enabled is true in a binary built with -race.
const Enabled = false
