package bench

import (
	"os"
	"strings"
	"testing"
)

func TestLegacyAliases(t *testing.T) {
	r := New("campaign")
	r.Metrics["jobs_per_sec"] = 16.5
	r.Metrics["jobs"] = 24
	r.Params = map[string]any{"circuit": "mul8"}
	raw, err := MarshalLegacy(r)
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	// Old consumers read flat top-level keys; new ones read .metrics.
	for _, want := range []string{
		`"jobs_per_sec": 16.5`, `"jobs": 24`, `"circuit": "mul8"`,
		`"schema": "rescue-bench/v1"`, `"iterations": 1`, `"metrics"`, `"provenance"`, `"num_cpu"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("legacy output missing %s in:\n%s", want, s)
		}
	}
}

func TestCollectProvenance(t *testing.T) {
	p := CollectProvenance("")
	if p.GOOS == "" || p.GOARCH == "" || p.NumCPU <= 0 || p.GoVersion == "" {
		t.Errorf("incomplete provenance: %+v", p)
	}
	// Inside this repo the commit must resolve; anywhere else "unknown"
	// is the documented degradation.
	if p.GitCommit == "" {
		t.Error("git commit must never be empty")
	}
	if _, err := os.Stat("../../../.git"); err == nil && p.GitCommit == "unknown" {
		t.Error("provenance did not resolve the repo's git commit")
	}
}
