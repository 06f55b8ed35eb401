package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// cohort is the environment a measurement belongs to. Numbers from two
// cohorts are never compared or aggregated together.
type cohort struct {
	Host       string `json:"host"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// provenance names the code measured. Commit and dirty flag come from
// the build's version-control stamp; a build outside a repository has
// neither (commit "unknown", dirty null).
type provenance struct {
	Commit string `json:"commit"`
	Dirty  *bool  `json:"dirty"`
}

func currentCohort() cohort {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return cohort{Host: host, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

func currentProvenance() provenance {
	p := provenance{Commit: "unknown"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return p
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			p.Commit = s.Value
		case "vcs.modified":
			dirty := s.Value == "true"
			p.Dirty = &dirty
		}
	}
	return p
}

func loadRecord(path string) (*runRecord, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runRecord
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if r.Schema != recordSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, recordSchema)
	}
	return &r, nil
}

// checkComparable refuses two records that must not be compared: from
// different cohorts, or of different workloads, modes, workload seeds or
// run lengths. Two seeds draw different inputs (mul8's ATPG cost alone
// differs by half between base seeds), so a difference between them is
// not a change in the code.
func checkComparable(a, b *runRecord) error {
	if a.Cohort != b.Cohort {
		return fmt.Errorf("refusing to compare across cohorts: %+v vs %+v", a.Cohort, b.Cohort)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace %v) with %s (trace %v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare seed %d over %gs with seed %d over %gs", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	return nil
}

// compareCmd sets a base record and a changed record side by side. An
// end-to-end metric whose change median is worse than the base median by
// more than its bound is a regression; where either side's spread
// exceeds the bound the comparison is unresolved, unless every sample
// of the change beats every sample of the base.
func compareCmd(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare base.json change.json")
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	a, err := loadRecord(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRecord(fs.Arg(1))
	if err != nil {
		return err
	}
	if err := checkComparable(a, b); err != nil {
		return err
	}
	fmt.Printf("%s: base %s, change %s\n", a.Workload, a.Provenance.Commit, b.Provenance.Commit)
	regressions := 0
	for _, m := range spec.metrics(a.Trace) {
		sa, sb := a.Metrics[m.Name], b.Metrics[m.Name]
		worse := (sb.Median - sa.Median) / math.Abs(sa.Median)
		if m.Better == "higher" {
			worse = -worse
		}
		verdict := "-"
		if m.Bound > 0 {
			switch {
			case (sa.spread() > m.Bound || sb.spread() > m.Bound) && !dominates(m, a, b):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			default:
				verdict = "ok"
			}
		}
		fmt.Printf("  %-36s %12.6g -> %12.6g %-8s worse by %+7.2f%% (bound %g%%) %s\n",
			m.Name, sa.Median, sb.Median, m.Unit, 100*worse, 100*m.Bound, verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bounds", regressions)
	}
	return nil
}

// dominates reports whether every sample of b is better on m than every
// sample of a.
func dominates(m specMetric, a, b *runRecord) bool {
	va, err := a.values(m.Name)
	if err != nil || len(va) == 0 {
		return false
	}
	vb, err := b.values(m.Name)
	if err != nil || len(vb) == 0 {
		return false
	}
	va, vb = sorted(va), sorted(vb)
	if m.Better == "higher" {
		return vb[0] > va[len(va)-1]
	}
	return vb[len(vb)-1] < va[0]
}
