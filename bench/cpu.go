package main

import "runtime"

// Where a trial runs. queue-pairs measures queue operations running in
// parallel, so it gets every CPU the process may use and GOMAXPROCS at its
// default. The network workloads and the per-layer pass run on one CPU with
// GOMAXPROCS 1. Client and server share this process, so on several CPUs a
// round trip is mostly cross-CPU wake-ups, whose cost on a shared VM host
// drifts by half over minutes. On one CPU a round trip is the serving path's
// own work (syscalls, goroutine switches, codec, allocations), which is
// what a change to the code moves.
type placement int

const (
	placeUnset placement = iota
	allCPUs
	oneCPU
)

var (
	defaultProcs = runtime.GOMAXPROCS(0)
	placed       placement
	// netCPU is the CPU oneCPU pins the process to, -1 where the platform
	// cannot pin.
	netCPU = -1
)

func place(p placement) error {
	if p == placed {
		return nil
	}
	switch p {
	case allCPUs:
		if err := unpinCPU(); err != nil {
			return err
		}
		runtime.GOMAXPROCS(defaultProcs)
	case oneCPU:
		runtime.GOMAXPROCS(1)
		cpu, err := pinCPU()
		if err != nil {
			return err
		}
		netCPU = cpu
	}
	placed = p
	return nil
}
