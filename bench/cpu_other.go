//go:build !linux

package main

// Pinning threads to a CPU needs Linux; elsewhere the one-CPU placement
// only sets GOMAXPROCS to 1.
func pinCPU() (int, error) { return -1, nil }

func unpinCPU() error { return nil }
