package wire

import (
	"bytes"
	"slices"
	"testing"

	"msqueue/internal/race"
)

// TestAppendDecodeAllocatesNothing pins the in-place codec: each hot frame
// kind, encoded by AppendValueFrame or AppendValuesFrame into a reused buffer,
// read back by Read into another and its payload decoded (batches into a
// reused []int), allocates nothing.
func TestAppendDecodeAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	vals := make([]int, 64)
	for i := range vals {
		vals[i] = i<<40 - 7
	}
	decodeValue := func(_ []int, p []byte) ([]int, error) { _, err := DecodeValue(p); return nil, err }
	for _, tc := range []struct {
		name   string
		encode func(b []byte) []byte
		decode func(dst []int, p []byte) ([]int, error)
	}{
		{"ENQ", func(b []byte) []byte { return AppendValueFrame(b, Enq, 1, 42) }, decodeValue},
		{"VALUE", func(b []byte) []byte { return AppendValueFrame(b, Value, 2, -42) }, decodeValue},
		{"ENQ_BATCH", func(b []byte) []byte { return AppendValuesFrame(b, EnqBatch, 3, vals) }, DecodeInts},
		{"VALUES", func(b []byte) []byte { return AppendValuesFrame(b, Values, 4, vals) }, DecodeInts},
	} {
		var enc, rbuf []byte
		var ints []int
		rd := bytes.NewReader(nil)
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			enc = tc.encode(enc[:0])
			rd.Reset(enc)
			var f Frame
			if f, rbuf, err = Read(rd, rbuf); err == nil {
				ints, err = tc.decode(ints[:0], f.Payload)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: encode and decode allocated %v times, want 0", tc.name, allocs)
		}
		if tc.name == "VALUES" && !slices.Equal(ints, vals) {
			t.Errorf("VALUES decoded to %v, want %v", ints, vals)
		}
	}
}
