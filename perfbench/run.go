package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runDeadline bounds a whole run of one workload, samples included, so
// the process always ends well within three minutes.
const runDeadline = 170 * time.Second

// setupProbes is how many set-up-only processes a measuring run starts
// besides its samples, so setup_s is a median of at least this many.
const setupProbes = 9

// specFile is the benchmark spec, read from the repository root the
// benchmark runs in.
const specFile = "BENCHMARK.json"

// specMetric is one metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names it must report, their units and bounds.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

func (s *benchSpec) metrics(trace bool) []specMetric {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// recordOnly are end-to-end shares the record and table report but
// BENCHMARK.json cannot list: they are 0 on a healthy run, and a metric
// there must never be 0. The result line carries the error rate anyway
// as failed / attempted.
var recordOnly = []specMetric{
	{Name: "error_rate", Unit: "share", Better: "lower"},
	{Name: "slo_miss_share", Unit: "share", Better: "lower"},
}

// runRecord is everything one run measured: its cohort and provenance,
// every sample, and each metric's distribution over the samples.
type runRecord struct {
	Schema     string             `json:"schema"`
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	Cohort     cohort             `json:"cohort"`
	Provenance provenance         `json:"provenance"`
	Metrics    map[string]summary `json:"metrics"`
	// Steady is false when the exact work counts differed between
	// samples of this seed.
	Steady    bool            `json:"steady"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Samples   []*sampleResult `json:"samples"`
	// SetupProbes are the setup_s values of the set-up-only processes.
	SetupProbes []float64 `json:"setup_probes,omitempty"`
}

const recordSchema = "perfbench/v1"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the run's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// sampleFlags are passed through to every sample process.
type sampleFlags struct {
	tmp   string
	seed  int64
	trace bool
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workload := fs.String("workload", "", "holistic-registry, reliability-sweep, server-mixed, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 40, "how long the run measures")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	tmp := fs.String("tmp", ".bench_build/tmp", "scratch directory for server base directories")
	out := fs.String("out", "", "also write the run record to this file (for compare)")
	fs.Parse(args)
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	workloads := []string{*workload}
	if *workload == "all" {
		workloads = workloadNames
		if *out != "" {
			return fmt.Errorf("-out takes a single workload")
		}
	}
	sf := sampleFlags{tmp: *tmp, seed: *seed, trace: *trace == 1}
	budget := time.Duration(*seconds * float64(time.Second))
	var lines []resultLine
	for _, w := range workloads {
		rec, err := runWorkload(spec, w, budget, sf)
		if err != nil {
			return fmt.Errorf("%s: %v", w, err)
		}
		if *out != "" {
			if err := writeJSONFile(*out, rec); err != nil {
				return err
			}
		}
		printTable(os.Stderr, spec, rec)
		if err := writeJSONLine(os.Stdout, rec); err != nil {
			return err
		}
		lines = append(lines, rec.result(spec))
	}
	for _, l := range lines {
		if err := writeJSONLine(os.Stdout, l); err != nil {
			return err
		}
	}
	return nil
}

// runWorkload starts sample processes one after another until the
// budget would be overrun by another sample of typical length, and
// gathers them into a record.
func runWorkload(spec *benchSpec, workload string, budget time.Duration, sf sampleFlags) (*runRecord, error) {
	if !slices.Contains(workloadNames, workload) {
		return nil, fmt.Errorf("unknown workload (have %s, all)", strings.Join(workloadNames, ", "))
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	rec := &runRecord{
		Schema: recordSchema, Workload: workload, Seed: sf.seed, Trace: sf.trace,
		Seconds: budget.Seconds(), Cohort: currentCohort(), Provenance: currentProvenance(),
		Metrics: make(map[string]summary), Steady: true, Correct: true,
	}
	mode := "measure"
	if sf.trace {
		mode = "trace"
	} else {
		for range setupProbes {
			s, err := spawnSample(ctx, workload, sf, "setup")
			if err != nil {
				return nil, err
			}
			rec.SetupProbes = append(rec.SetupProbes, s.Metrics["setup_s"])
		}
	}
	start := time.Now()
	var durations []float64
	for len(rec.Samples) == 0 || time.Since(start)+time.Duration(median(durations)*float64(time.Second)) <= budget {
		t := time.Now()
		s, err := spawnSample(ctx, workload, sf, mode)
		if err != nil {
			return nil, err
		}
		durations = append(durations, time.Since(t).Seconds())
		rec.Samples = append(rec.Samples, s)
	}
	for i, s := range rec.Samples {
		rec.Attempted += s.Attempted
		rec.Failed += s.Failed
		for _, p := range s.Problems {
			rec.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s sample %d: %s\n", workload, i, p)
		}
		if s.Work != nil && !maps.Equal(s.Work, rec.Samples[0].Work) {
			rec.Steady = false
			fmt.Fprintf(os.Stderr, "perfbench: %s sample %d: work counts differ from sample 0 at one seed: unsteady run\n", workload, i)
		}
	}
	for _, m := range spec.metrics(sf.trace) {
		vals, err := rec.values(m.Name)
		if err != nil {
			return nil, err
		}
		rec.Metrics[m.Name] = summarize(vals, m.Unit)
	}
	if !sf.trace {
		for _, m := range recordOnly {
			if vals, err := rec.values(m.Name); err == nil {
				rec.Metrics[m.Name] = summarize(vals, m.Unit)
			}
		}
	}
	return rec, nil
}

// values collects one metric from every sample of the record.
func (r *runRecord) values(name string) ([]float64, error) {
	vals := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		src := s.Metrics
		if r.Trace {
			src = s.Layers
		}
		v, ok := src[name]
		if !ok {
			return nil, fmt.Errorf("sample %d did not measure %s", i, name)
		}
		vals[i] = v
	}
	if name == "setup_s" {
		vals = append(vals, r.SetupProbes...)
	}
	return vals, nil
}

// spawnSample runs one sample in a fresh process and decodes its report.
func spawnSample(ctx context.Context, workload string, sf sampleFlags, mode string) (*sampleResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"sample", "-workload", workload, "-seed", strconv.FormatInt(sf.seed, 10),
		"-mode", mode, "-tmp", sf.tmp}
	cmd := exec.CommandContext(ctx, exe, append(args, "-t0", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("sample process: %v", err)
	}
	var s sampleResult
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("decoding sample: %v", err)
	}
	return &s, nil
}

func (r *runRecord) result(spec *benchSpec) resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue)}
	for _, m := range spec.metrics(r.Trace) {
		l.Metrics[m.Name] = metricValue{Value: r.Metrics[m.Name].Median, Unit: m.Unit}
	}
	return l
}

func printTable(w io.Writer, spec *benchSpec, r *runRecord) {
	fmt.Fprintf(w, "%s seed %d, %d samples, correct=%v steady=%v, %d/%d operations failed\n",
		r.Workload, r.Seed, len(r.Samples), r.Correct, r.Steady, r.Failed, r.Attempted)
	for _, m := range append(spec.metrics(r.Trace), recordOnly...) {
		s, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-8s IQR [%.6g, %.6g] n=%d\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
	}
}

func writeJSONLine(w io.Writer, v any) error {
	js, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", js)
	return err
}

func writeJSONFile(path string, v any) error {
	js, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}
