package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunPrintsOneAlgorithm is the CLI smoke test: -algo selects that
// algorithm's rows of explore.Scenarios (the table test in
// internal/explore asserts every row's verdict).
func TestRunPrintsOneAlgorithm(t *testing.T) {
	var out strings.Builder
	code, err := run([]string{"-algo", "mc"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; output:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "BLOCKS  mc/paths/enq-vs-deq ") {
		t.Fatalf("want exactly the mc row, got:\n%s", out.String())
	}
}

func TestRunRejectsUnknownAlgo(t *testing.T) {
	if _, err := run([]string{"-algo", "nope"}, io.Discard); err == nil {
		t.Fatal("want error")
	}
}
