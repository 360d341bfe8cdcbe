package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSmoke runs every workload once for 100 ms and one short traced pass,
// and checks that exactly the metrics BENCHMARK.json names come out, with
// its units, and that the results file and the result line round-trip.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	p := plan{trials: 1, window: 100 * time.Millisecond, traceTrials: 1, traceWindow: 100 * time.Millisecond}
	var out bytes.Buffer

	var sel []workload
	for _, w := range s.Workloads {
		wl, err := lookupWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		sel = append(sel, wl)
	}
	if len(sel) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sel), len(workloads))
	}
	e2e, err := runEndToEnd(sel, p, 1, &out)
	if err != nil {
		t.Fatalf("end-to-end run: %v\n%s", err, out.String())
	}
	if e2e.Failed != 0 || e2e.Attempted == 0 {
		t.Errorf("end-to-end run: %d of %d calls failed", e2e.Failed, e2e.Attempted)
	}
	wantE2E := map[string]string{}
	for _, w := range sel {
		for _, m := range s.EndToEnd {
			wantE2E[w.name+"."+m.Name] = m.Unit
		}
		for name, st := range e2e.Workloads[w.name].Metrics {
			if math.IsNaN(st.Value) || math.IsInf(st.Value, 0) || st.Value <= 0 {
				t.Errorf("%s %s = %v, want a positive number", w.name, name, st.Value)
			}
		}
	}
	gotE2E := map[string]string{}
	for name, m := range e2e.result(true).Metrics {
		gotE2E[name] = m.Unit
	}
	if !reflect.DeepEqual(gotE2E, wantE2E) {
		t.Errorf("result line metrics %v\nBENCHMARK.json end_to_end %v", sortedKeys(gotE2E), sortedKeys(wantE2E))
	}

	layers, err := runPerLayer(p, 1, true, &out)
	if err != nil {
		t.Fatalf("per-layer run: %v\n%s", err, out.String())
	}
	wantLayers := map[string]string{}
	for _, m := range s.PerLayer {
		wantLayers[m.Name] = m.Unit
	}
	gotLayers := map[string]string{}
	for name, v := range layers.Layers {
		gotLayers[name] = v.Unit
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s = %v", name, v.Value)
		}
	}
	if !reflect.DeepEqual(gotLayers, wantLayers) {
		t.Errorf("per-layer metrics %v\nBENCHMARK.json per_layer %v", sortedKeys(gotLayers), sortedKeys(wantLayers))
	}

	// The results file and the result line round-trip through JSON.
	path := filepath.Join(t.TempDir(), "out.json")
	if err := e2e.writeFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	for _, w := range sel {
		got, want := back.Workloads[w.name].Metrics, e2e.Workloads[w.name].Metrics
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: results file read back %v, wrote %v", w.name, got, want)
		}
	}
	if back.Host.NProc == 0 || back.Host.GoVersion == "" || back.Trials != 1 {
		t.Errorf("results file host facts %+v, trials %d", back.Host, back.Trials)
	}
	for _, rep := range []*report{e2e, layers} {
		line := rep.result(true)
		b, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		var lineBack resultLine
		if err := json.Unmarshal(b, &lineBack); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lineBack, line) {
			t.Errorf("result line read back %+v, wrote %+v", lineBack, line)
		}
	}
}

// TestRunFlags checks that a bad command line (an unknown workload, a bad
// -trace or -seconds value, a stray argument) is refused before anything
// runs.
func TestRunFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"extra"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) succeeded, want an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q before refusing", args, out.String())
		}
	}
}
