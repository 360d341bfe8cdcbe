package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

type metricDef struct {
	name, unit string
	// pick takes the run's figure from the metric's distribution over trials.
	pick func(summary) float64
	// unbounded metrics are printed and kept in the results file but left
	// out of the result line: on the reference host their run-to-run spread
	// is wider than any regression bound BENCHMARK.json may set.
	unbounded bool
}

// A run's figure for each metric but setup_s is the per-trial value at the
// quartile on the metric's better side. Interference from the shared host
// only ever slows a trial, in stretches of a second or more, so this is the
// run's typical trial outside such stretches, and it holds as long as a
// quarter of the trials escape them. setup_s is the median of the run's
// set-ups.
var (
	pickMedian = func(s summary) float64 { return s.Median }
	pickP25    = func(s summary) float64 { return s.P25 }
	pickP75    = func(s summary) float64 { return s.P75 }
)

// endToEnd lists the metrics a user of the service sees, in print order.
// One "op" is one element enqueued or dequeued.
var endToEnd = []metricDef{
	{"setup_s", "s", pickMedian, false},
	{"throughput_ops_s", "ops/s", pickP75, false},
	{"lat_p50_us", "us", pickP25, false},
	{"lat_p99_us", "us", pickP25, true},
	{"cpu_us_per_op", "us", pickP25, false},
	{"allocs_per_op", "count", pickP25, false},
	{"alloc_bytes_per_op", "B", pickP25, false},
}

// trialFigures is what a run keeps of one trial.
type trialFigures struct {
	figs         map[string]float64
	samples      int // latency samples
	calls, fails int64
}

// stat is one metric of one workload: the run's figure and the
// distribution of the metric trial by trial.
type stat struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	PerTrial summary `json:"per_trial"`
}

type workloadReport struct {
	Metrics    map[string]stat `json:"metrics"`
	LatSamples int             `json:"lat_samples"`
	Attempted  int64           `json:"attempted"`
	Failed     int64           `json:"failed"`
	FailRatio  float64         `json:"fail_ratio"`
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured. Its JSON form is the -json
// results file.
type report struct {
	Host         hostFacts                  `json:"host"`
	Seed         int64                      `json:"seed"`
	Trials       int                        `json:"trials,omitempty"`
	WindowS      float64                    `json:"window_s,omitempty"`
	TraceTrials  int                        `json:"trace_trials,omitempty"`
	TraceWindowS float64                    `json:"trace_window_s,omitempty"`
	Workloads    map[string]*workloadReport `json:"workloads,omitempty"`
	Layers       map[string]layerValue      `json:"layers,omitempty"`
	Attempted    int64                      `json:"attempted"`
	Failed       int64                      `json:"failed"`

	workloadOrder []string
	layerOrder    []string
}

func newReport(p plan) *report {
	return &report{Trials: p.trials, WindowS: p.window.Seconds(), Workloads: map[string]*workloadReport{}}
}

func (r *report) addWorkload(name string, ts []trialFigures) {
	wr := &workloadReport{Metrics: map[string]stat{}}
	perTrial := map[string][]float64{}
	for _, t := range ts {
		for k, v := range t.figs {
			perTrial[k] = append(perTrial[k], v)
		}
		wr.LatSamples += t.samples
		wr.Attempted += t.calls
		wr.Failed += t.fails
	}
	for _, m := range endToEnd {
		s := summarize(perTrial[m.name])
		wr.Metrics[m.name] = stat{m.pick(s), m.unit, s}
	}
	if wr.Attempted > 0 {
		wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
	}
	r.Workloads[name] = wr
	r.workloadOrder = append(r.workloadOrder, name)
}

func (r *report) addLayer(name, unit string, v float64) {
	if r.Layers == nil {
		r.Layers = map[string]layerValue{}
	}
	if _, dup := r.Layers[name]; !dup {
		r.layerOrder = append(r.layerOrder, name)
	}
	r.Layers[name] = layerValue{v, unit}
}

// print writes every metric by name with its unit.
func (r *report) print(w io.Writer) {
	for _, name := range r.workloadOrder {
		wr := r.Workloads[name]
		fmt.Fprintf(w, "%s: %d trials of %.3gs, %d latency samples, %d calls, fail_ratio %g\n",
			name, r.Trials, r.WindowS, wr.LatSamples, wr.Attempted, wr.FailRatio)
		for _, m := range endToEnd {
			s := wr.Metrics[m.name]
			note := ""
			if m.unbounded {
				note = "; unbounded"
			}
			fmt.Fprintf(w, "  %-20s %14.6g %-6s  (per trial: p25 %.6g, median %.6g, p75 %.6g%s)\n",
				m.name, s.Value, s.Unit, s.PerTrial.P25, s.PerTrial.Median, s.PerTrial.P75, note)
		}
	}
	for _, name := range r.layerOrder {
		v := r.Layers[name]
		fmt.Fprintf(w, "  %-46s %14.6g %s\n", name, v.Value, v.Unit)
	}
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// result is the run's last output line: the end-to-end metrics with a
// bound, then any per-layer metrics. With one workload the metric keys are
// the bare names; with several they are prefixed "workload.".
func (r *report) result(correct bool) resultLine {
	out := resultLine{Correct: correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultMetric{}}
	if !correct {
		return out
	}
	for _, name := range r.workloadOrder {
		prefix := name + "."
		if len(r.workloadOrder) == 1 {
			prefix = ""
		}
		for _, m := range endToEnd {
			if !m.unbounded {
				s := r.Workloads[name].Metrics[m.name]
				out.Metrics[prefix+m.name] = resultMetric{s.Value, s.Unit}
			}
		}
	}
	for name, v := range r.Layers {
		out.Metrics[name] = resultMetric(v)
	}
	return out
}

// hostFacts says where a results file was measured.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NetCPU     int    `json:"net_cpu"` // the one CPU of the network workloads and the per-layer pass; -1 if not pinned
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: defaultProcs,
		NetCPU:     netCPU,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeFile writes the results file, host facts included.
func (r *report) writeFile(path string) error {
	r.Host = readHostFacts()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}
