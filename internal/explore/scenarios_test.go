package explore

import (
	"strings"
	"testing"
)

// TestScenarios runs every row of the table once and asserts everything
// the row claims: its verdict, that the search was not capped, its exact
// state and event counts, and, for a "races" row, the violation kind (and
// detail text) it must find, each finding of that kind carrying a
// minimized schedule that replays to the same kind.
func TestScenarios(t *testing.T) {
	for _, sc := range Scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc.Config)
			if err != nil {
				t.Fatal(err)
			}
			if res.Capped {
				t.Fatalf("search capped at %d states", res.Paths)
			}
			if verdict, ok := Classify(res, sc.Expect); !ok {
				t.Fatalf("verdict %s, want %s (parked=%d blocked=%d violations %v)",
					verdict, sc.Expect, res.Parked, res.Blocked, res.Violations)
			}
			if res.Paths != sc.States || res.Events != sc.Events {
				t.Errorf("searched %d states, %d events; the row pins %d, %d",
					res.Paths, res.Events, sc.States, sc.Events)
			}
			if sc.Expect != "races" {
				return
			}
			found, detail := 0, sc.Detail == ""
			for _, v := range res.Violations {
				if v.Kind != sc.Kind {
					continue
				}
				found++
				detail = detail || strings.Contains(v.Detail, sc.Detail)
				if v.Minimized == nil || len(v.Minimized) > len(v.Schedule) {
					t.Fatalf("minimized schedule %v of %v", v.Minimized, v.Schedule)
				}
				rep, err := Replay(sc.Config, v.Minimized)
				if err != nil {
					t.Fatalf("minimized schedule does not replay: %v", err)
				}
				if !kindSet(rep)[sc.Kind] {
					t.Fatalf("minimized schedule %v lost the %s violation", v.Minimized, sc.Kind)
				}
			}
			if found == 0 {
				t.Fatalf("no %s violation among %v", sc.Kind, res.Violations)
			}
			if !detail {
				t.Fatalf("no %s violation mentions %q: %v", sc.Kind, sc.Detail, res.Violations)
			}
		})
	}
}

// TestScenariosTable checks the table's shape: every modelled algorithm
// has a row, each name starts with its config's algorithm and mode (which
// is what lets qmodel's -algo filter by name), and names are unique.
func TestScenariosTable(t *testing.T) {
	rows := make(map[Algo]int)
	names := make(map[string]bool)
	for _, sc := range Scenarios {
		rows[sc.Config.Algo]++
		prefix := sc.Config.Algo.String() + "/" + sc.Config.Mode.String() + "/"
		if !strings.HasPrefix(sc.Name, prefix) {
			t.Errorf("%s: name does not start with %q", sc.Name, prefix)
		}
		if names[sc.Name] {
			t.Errorf("%s: duplicate name", sc.Name)
		}
		names[sc.Name] = true
	}
	for _, algo := range []Algo{AlgoMS, AlgoStone, AlgoMC, AlgoTwoLock, AlgoValois, AlgoEpoch, AlgoEpochPinKeyed, AlgoRing} {
		if rows[algo] == 0 {
			t.Errorf("no scenario for %v", algo)
		}
	}
}

// scenarioConfig returns the Config of the named row.
func scenarioConfig(t *testing.T, name string) Config {
	t.Helper()
	for _, sc := range Scenarios {
		if sc.Name == name {
			return sc.Config
		}
	}
	t.Fatalf("no scenario %q", name)
	return Config{}
}

func TestClassify(t *testing.T) {
	clean := Result{}
	raced := Result{Violations: []Violation{{Kind: "linearizability"}}}
	parked := Result{Parked: 3}
	capped := Result{Capped: true}

	tests := []struct {
		name   string
		res    Result
		expect string
		wantOK bool
	}{
		{name: "clean meets clean", res: clean, expect: "clean", wantOK: true},
		{name: "raced fails clean", res: raced, expect: "clean", wantOK: false},
		{name: "parked fails clean", res: parked, expect: "clean", wantOK: false},
		{name: "capped fails clean", res: capped, expect: "clean", wantOK: false},
		{name: "raced meets races", res: raced, expect: "races", wantOK: true},
		{name: "clean fails races", res: clean, expect: "races", wantOK: false},
		{name: "parked meets blocking", res: parked, expect: "blocking", wantOK: true},
		{name: "clean fails blocking", res: clean, expect: "blocking", wantOK: false},
		{name: "capped fails blocking", res: Result{Parked: 3, Capped: true}, expect: "blocking", wantOK: false},
		{name: "unknown expectation", res: clean, expect: "???", wantOK: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, ok := Classify(tt.res, tt.expect); ok != tt.wantOK {
				t.Fatalf("Classify ok = %v, want %v", ok, tt.wantOK)
			}
		})
	}
}
