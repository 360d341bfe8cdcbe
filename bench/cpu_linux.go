package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is the kernel's cpu_set_t: one bit per CPU, 1024 CPUs.
type cpuMask [16]uint64

// startMask is the set of CPUs the process was started on.
var startMask, startMaskErr = getAffinity(0)

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setAffinity(tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// setProcessAffinity gives every thread of the process the mask m. A new
// thread inherits its creator's mask, so passes repeat until one finds
// every thread already on m: then no thread is left to start one outside it.
func setProcessAffinity(m cpuMask) error {
	for {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return fmt.Errorf("list threads: %w", err)
		}
		changed := false
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			cur, err := getAffinity(tid)
			if errors.Is(err, syscall.ESRCH) {
				continue // the thread has exited
			}
			if err != nil {
				return fmt.Errorf("thread %d affinity: %w", tid, err)
			}
			if cur == m {
				continue
			}
			if err := setAffinity(tid, &m); err != nil && !errors.Is(err, syscall.ESRCH) {
				return fmt.Errorf("pin thread %d: %w", tid, err)
			}
			changed = true
		}
		if !changed {
			return nil
		}
	}
}

// pinCPU moves every thread of the process to the lowest-numbered CPU it
// was started on, and returns that CPU.
func pinCPU() (int, error) {
	if startMaskErr != nil {
		return -1, fmt.Errorf("read CPU affinity: %w", startMaskErr)
	}
	for i, word := range startMask {
		if word != 0 {
			cpu := i*64 + bits.TrailingZeros64(word)
			var one cpuMask
			one[i] = 1 << (cpu % 64)
			return cpu, setProcessAffinity(one)
		}
	}
	return -1, errors.New("the process may run on no CPU")
}

// unpinCPU gives every thread back the CPUs the process was started on.
func unpinCPU() error {
	if startMaskErr != nil {
		return fmt.Errorf("read CPU affinity: %w", startMaskErr)
	}
	return setProcessAffinity(startMask)
}
