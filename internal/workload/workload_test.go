package workload

import (
	"testing"
	"time"
)

func TestCalibrateZeroIsNoop(t *testing.T) {
	s := Calibrate(0)
	if s.itersPerWork != 0 {
		t.Fatalf("itersPerWork = %d, want 0", s.itersPerWork)
	}
	start := time.Now()
	for i := 0; i < 1000; i++ {
		s.Spin()
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("1000 no-op spins took %v", elapsed)
	}
}

func TestCalibrateNegativeIsNoop(t *testing.T) {
	if got := Calibrate(-time.Second).itersPerWork; got != 0 {
		t.Fatalf("itersPerWork = %d, want 0", got)
	}
}

func TestCalibrateProducesPositiveIterations(t *testing.T) {
	s := Calibrate(DefaultOtherWork)
	if s.itersPerWork < 1 {
		t.Fatalf("itersPerWork = %d, want >= 1", s.itersPerWork)
	}
}

func TestSpinDurationIsRoughlyCalibrated(t *testing.T) {
	const target = 20 * time.Microsecond
	s := Calibrate(target)
	const reps = 2000
	start := time.Now()
	for i := 0; i < reps; i++ {
		s.Spin()
	}
	per := time.Since(start) / reps
	// Generous bounds: shared CI machines jitter, but a calibration that is
	// off by more than 8x in either direction is broken.
	if per < target/8 || per > target*8 {
		t.Fatalf("calibrated spin took %v per call, want within 8x of %v", per, target)
	}
}

func TestLongerTargetsSpinLonger(t *testing.T) {
	short := Calibrate(2 * time.Microsecond)
	long := Calibrate(60 * time.Microsecond)
	if long.itersPerWork <= short.itersPerWork {
		t.Fatalf("60µs spinner has %d iterations, 2µs has %d; want monotone",
			long.itersPerWork, short.itersPerWork)
	}
}
