// Package bench is the -timing writer of rescue-campaign and
// rescue-atpg: one Result per run, carrying named numeric metrics plus
// the provenance of the run (git commit, host, Go version), written as
// a single JSON object with the pre-schema flat field names aliased at
// the top level (WriteLegacy), so pre-schema consumers keep parsing.
//
// End-to-end benchmarking lives in perfbench (see BENCHMARK.json); this
// package only records what one CLI run measured.
package bench

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Schema identifies the current result shape.
const Schema = "rescue-bench/v1"

// Provenance records where and when a measurement ran — the facts needed
// to judge whether two measurements are comparable.
type Provenance struct {
	GitCommit string `json:"git_commit"`
	GitDirty  bool   `json:"git_dirty,omitempty"`
	Host      string `json:"host"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	Timestamp string `json:"timestamp,omitempty"` // RFC3339, UTC
}

// Result is one run's measurement: a named set of numeric metrics plus
// the provenance of the run that produced them. Params carries
// non-numeric run configuration (circuit name, flags).
type Result struct {
	Schema     string             `json:"schema"`
	Name       string             `json:"name"`
	Params     map[string]any     `json:"params,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Provenance Provenance         `json:"provenance"`
}

// CollectProvenance gathers the running process's provenance. The git
// commit comes from `git rev-parse HEAD` in dir ("" = cwd) and degrades
// to "unknown" outside a work tree — a measurement is still usable
// without it, just not attributable to a commit.
func CollectProvenance(dir string) Provenance {
	p := Provenance{
		GitCommit: "unknown",
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	if host, err := os.Hostname(); err == nil {
		p.Host = host
	}
	if out, err := gitOutput(dir, "rev-parse", "HEAD"); err == nil {
		p.GitCommit = out
	}
	if out, err := gitOutput(dir, "status", "--porcelain"); err == nil {
		p.GitDirty = out != ""
	}
	return p
}

func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(out)), nil
}

// New returns a Result shell with schema, name and provenance filled in.
func New(name string) *Result {
	return &Result{
		Schema:     Schema,
		Name:       name,
		Metrics:    make(map[string]float64),
		Provenance: CollectProvenance(""),
	}
}

// MarshalLegacy serialises a Result with its metrics and params aliased
// as flat top-level fields next to the schema fields — the
// compatibility shape -timing writes so existing consumers reading
// e.g. .jobs_per_sec or .wall_ms keep working for one release.
func MarshalLegacy(r *Result) ([]byte, error) {
	flat := make(map[string]any, len(r.Metrics)+len(r.Params)+8)
	for k, v := range r.Metrics {
		flat[k] = legacyNumber(v)
	}
	for k, v := range r.Params {
		flat[k] = v
	}
	flat["goos"] = r.Provenance.GOOS
	flat["goarch"] = r.Provenance.GOARCH
	flat["num_cpu"] = r.Provenance.NumCPU
	flat["schema"] = r.Schema
	flat["name"] = r.Name
	flat["iterations"] = 1 // a -timing file records exactly one run
	flat["metrics"] = r.Metrics
	if len(r.Params) > 0 {
		flat["params"] = r.Params
	}
	flat["provenance"] = r.Provenance
	return json.MarshalIndent(flat, "", "  ")
}

// legacyNumber keeps integral metrics rendering as integers in the
// legacy flat fields, matching the pre-schema -timing output.
func legacyNumber(v float64) any {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return int64(v)
	}
	return v
}

// WriteLegacy writes MarshalLegacy output to path.
func WriteLegacy(path string, r *Result) error {
	raw, err := MarshalLegacy(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
