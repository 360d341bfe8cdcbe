package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{ten, 0.5, 5},
		{ten, 0.25, 3},  // rank ceil(2.5) = 3
		{ten, 0.75, 8},  // rank ceil(7.5) = 8
		{ten, 0.99, 10}, // rank ceil(9.9) = 10
		{ten, 1, 10},
		{ten, 0.01, 1},
		{hundred, 0.99, 99},
		{hundred, 0.5, 50},
		{[]float64{42}, 0.5, 42},
		{[]float64{42}, 0.99, 42},
	}
	for _, c := range cases {
		if got := nearestRank(c.sorted, c.q); got != c.want {
			t.Errorf("nearestRank(n=%d, %v) = %v, want %v", len(c.sorted), c.q, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("nearestRank(empty) = %v, want NaN", got)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 || s.P25 != 1 || s.P75 != 3 || s.Trials != 4 {
		t.Errorf("summarize = %+v, want median 2.5, p25 1, p75 3, 4 trials", s)
	}
}

func TestSamplesSpanChunks(t *testing.T) {
	var pool chunkPool
	pool.reserve(2)
	s := newSamples(&pool)
	const n = 2*chunkLen + 3
	for i := 0; i < n; i++ {
		s.add(int64(i))
	}
	if pool.grown != 1 {
		t.Errorf("pool grew %d chunks, want 1 beyond the 2 reserved", pool.grown)
	}
	i := int64(0)
	s.each(func(v int64) {
		if v != i {
			t.Fatalf("sample %d = %d", i, v)
		}
		i++
	})
	if i != n || s.n != n {
		t.Errorf("got %d samples (n=%d), want %d", i, s.n, n)
	}
}
