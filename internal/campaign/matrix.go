// Package campaign is the parallel orchestration engine of the RESCUE
// toolset: it fans a declarative job matrix — {circuit × environment ×
// technology × scenario} — across a worker pool, shards the fault lists
// of large circuits, derives a deterministic per-job seed from the job
// coordinates (so results are bit-identical at any parallelism level),
// supports context-based cancellation and progress streaming, and merges
// the per-job core.Reports into a campaign-level summary with per-aspect
// rollups. It is the scaling layer the paper's Fig. 2 flow runs under
// when one design at a time is not enough.
package campaign

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"rescue/internal/atpg"
	"rescue/internal/circuits"
	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/netlist"
	"rescue/internal/seu"
	"rescue/internal/sim"
)

// Scenario selects which Fig. 2 stages a job runs.
type Scenario string

const (
	// ScenarioQuality runs ATPG + untestable identification only.
	ScenarioQuality Scenario = "quality"
	// ScenarioReliability runs the soft-error/aging stage only.
	ScenarioReliability Scenario = "reliability"
	// ScenarioSafety runs the ISO 26262 stage only.
	ScenarioSafety Scenario = "safety"
	// ScenarioSecurity runs the side-channel stage only.
	ScenarioSecurity Scenario = "security"
	// ScenarioHolistic runs all four stages, like core.RunFlow.
	ScenarioHolistic Scenario = "holistic"
)

// Scenarios lists every scenario in canonical order.
func Scenarios() []Scenario {
	return []Scenario{ScenarioQuality, ScenarioReliability, ScenarioSafety, ScenarioSecurity, ScenarioHolistic}
}

// Stages maps the scenario to the core stages it schedules.
func (s Scenario) Stages() ([]core.StageID, error) {
	switch s {
	case ScenarioHolistic:
		return core.AllStages(), nil
	case ScenarioQuality, ScenarioReliability, ScenarioSafety, ScenarioSecurity:
		id, err := core.ParseStage(string(s))
		if err != nil {
			return nil, err
		}
		return []core.StageID{id}, nil
	}
	return nil, fmt.Errorf("campaign: unknown scenario %q (have %v)", s, Scenarios())
}

// Environments maps the radiation-environment names accepted in a matrix
// spec to the seu package's standard environments, keyed by their own
// Name so the two can never drift.
var Environments = func() map[string]seu.Environment {
	m := make(map[string]seu.Environment)
	for _, e := range []seu.Environment{seu.SeaLevel, seu.Avionics, seu.LEO, seu.GEO} {
		m[e.Name] = e
	}
	return m
}()

// Technologies maps the technology-node names accepted in a matrix spec
// to the seu package's standard nodes, enumerated from seu.Nodes() so a
// node added there is immediately campaignable.
var Technologies = func() map[string]seu.Technology {
	m := make(map[string]seu.Technology)
	for _, t := range seu.Nodes() {
		m[t.Node] = t
	}
	return m
}()

// EnvironmentNames returns the accepted environment names, sorted.
func EnvironmentNames() []string { return sortedKeys(Environments) }

// TechnologyNames returns the accepted technology names, sorted.
func TechnologyNames() []string { return sortedKeys(Technologies) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Matrix declares a campaign: the cross product of circuits,
// environments, technologies and scenarios, plus the shared per-job flow
// parameters. The zero values of Environments/Technologies/Scenarios
// default to {sea-level} × {28nm} × {holistic}.
type Matrix struct {
	Circuits     []string   `json:"circuits"`
	Environments []string   `json:"environments,omitempty"`
	Technologies []string   `json:"technologies,omitempty"`
	Scenarios    []Scenario `json:"scenarios,omitempty"`

	// Patterns and Years parameterise every job's flow stage set.
	Patterns int     `json:"patterns,omitempty"`
	Years    float64 `json:"years,omitempty"`
	// Seed is the campaign base seed; each job derives its own seed from
	// it and the job coordinates.
	Seed int64 `json:"seed,omitempty"`

	// Shards splits the collapsed fault list of circuits with at least
	// ShardThreshold faults into that many independent jobs. 0 or 1
	// disables sharding.
	Shards int `json:"shards,omitempty"`
	// ShardThreshold is the fault count above which sharding kicks in
	// (default 512 when Shards > 1).
	ShardThreshold int `json:"shard_threshold,omitempty"`
}

// DefaultShardThreshold is used when a sharded matrix leaves
// ShardThreshold zero.
const DefaultShardThreshold = 512

// Admission ceilings. Expand rejects a matrix above either one before
// allocating anything that scales with it, so a hostile or mistyped
// spec cannot make the engine or the server allocate without bound.
// Both sit at 16x or more the largest matrix the repository itself
// runs (4096 patterns per job; about a thousand jobs).
const (
	// MaxPatterns caps Matrix.Patterns, the vectors each job draws.
	MaxPatterns = 1 << 16
	// MaxJobs caps the number of jobs one matrix expands into.
	MaxJobs = 1 << 16
)

// Job is one cell of the expanded matrix. Its seed is derived from the
// coordinates alone, never from scheduling order, so any worker executing
// it at any parallelism level computes the same result.
type Job struct {
	ID          int      `json:"id"`
	Circuit     string   `json:"circuit"`
	Environment string   `json:"environment"`
	Technology  string   `json:"technology"`
	Scenario    Scenario `json:"scenario"`
	// Shard/Shards select one contiguous slice of the circuit's collapsed
	// fault list; Shards <= 1 means the whole list.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`

	Patterns int     `json:"patterns"`
	Years    float64 `json:"years"`
	Seed     int64   `json:"seed"`
}

// Name renders a compact unique job label for logs and progress lines.
func (j Job) Name() string {
	s := fmt.Sprintf("%s/%s/%s/%s", j.Circuit, j.Environment, j.Technology, j.Scenario)
	if j.Shards > 1 {
		s += fmt.Sprintf("#%d.%d", j.Shard, j.Shards)
	}
	return s
}

// DeriveSeed computes the deterministic per-job seed: an FNV-1a hash of
// the job coordinates folded into the campaign base seed. It depends only
// on the coordinates, so reordering or extending the matrix never changes
// the seed of an existing job.
func DeriveSeed(base int64, circuit, env, tech string, scen Scenario, shard int) int64 {
	return base ^ coordHash(circuit, env, tech, scen, shard)
}

// coordHash is the masked-positive FNV-1a hash of one job's
// coordinates. XOR-folding it into the base seed is involutive, which
// is how jobBaseSeed recovers the campaign base from a Job alone.
func coordHash(circuit, env, tech string, scen Scenario, shard int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%s|%d", circuit, env, tech, scen, shard)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Expand validates the matrix and enumerates its jobs in deterministic
// order (circuit-major, then environment, technology, scenario, shard).
func (m Matrix) Expand() ([]Job, error) {
	if len(m.Circuits) == 0 {
		return nil, fmt.Errorf("campaign: matrix needs at least one circuit")
	}
	// Zero selects a default; a negative or non-finite value is a
	// malformed spec, not a request for the default.
	if m.Patterns < 0 || m.Shards < 0 || m.ShardThreshold < 0 {
		return nil, fmt.Errorf("campaign: patterns (%d), shards (%d) and shard_threshold (%d) must not be negative",
			m.Patterns, m.Shards, m.ShardThreshold)
	}
	if m.Patterns > MaxPatterns {
		return nil, fmt.Errorf("campaign: patterns (%d) exceeds the limit of %d", m.Patterns, MaxPatterns)
	}
	if m.Years < 0 || math.IsNaN(m.Years) || math.IsInf(m.Years, 0) {
		return nil, fmt.Errorf("campaign: years must be finite and non-negative, got %v", m.Years)
	}
	envs := m.Environments
	if len(envs) == 0 {
		envs = []string{"sea-level"}
	}
	techs := m.Technologies
	if len(techs) == 0 {
		techs = []string{"28nm"}
	}
	scens := m.Scenarios
	if len(scens) == 0 {
		scens = []Scenario{ScenarioHolistic}
	}
	for _, c := range m.Circuits {
		if _, ok := circuits.Registry[c]; !ok {
			return nil, fmt.Errorf("campaign: unknown circuit %q (have %v)", c, circuits.Names())
		}
	}
	for _, e := range envs {
		if _, ok := Environments[e]; !ok {
			return nil, fmt.Errorf("campaign: unknown environment %q (have %v)", e, EnvironmentNames())
		}
	}
	for _, t := range techs {
		if _, ok := Technologies[t]; !ok {
			return nil, fmt.Errorf("campaign: unknown technology %q (have %v)", t, TechnologyNames())
		}
	}
	for _, s := range scens {
		if _, err := s.Stages(); err != nil {
			return nil, err
		}
	}
	threshold := m.ShardThreshold
	if threshold <= 0 {
		threshold = DefaultShardThreshold
	}
	// Shard counts depend only on each circuit's collapsed fault-list
	// size, computed once per circuit.
	shardsFor := make(map[string]int, len(m.Circuits))
	for _, c := range m.Circuits {
		if _, seen := shardsFor[c]; seen {
			continue
		}
		shards := 1
		if m.Shards > 1 {
			if nf := collapsedFaultCount(c); nf >= threshold {
				shards = m.Shards
				if shards > nf {
					// Never create empty shards: a zero-fault job would
					// divide by zero in the SDC computation.
					shards = nf
				}
			}
		}
		shardsFor[c] = shards
	}
	n := jobCount(m.Circuits, shardsFor, capMul(len(envs), len(techs)), scens)
	if n > MaxJobs {
		return nil, fmt.Errorf("campaign: matrix expands to more than %d jobs (the limit)", MaxJobs)
	}
	jobs := make([]Job, 0, n)
	for _, c := range m.Circuits {
		for _, e := range envs {
			for _, t := range techs {
				for _, s := range scens {
					shards := shardsFor[c]
					if s == ScenarioSecurity {
						// The security stage has no fault-list dependency;
						// sharding it would only duplicate the measurement.
						shards = 1
					}
					for sh := 0; sh < shards; sh++ {
						jobs = append(jobs, Job{
							ID:          len(jobs),
							Circuit:     c,
							Environment: e,
							Technology:  t,
							Scenario:    s,
							Shard:       sh,
							Shards:      shards,
							Patterns:    m.Patterns,
							Years:       m.Years,
							Seed:        DeriveSeed(m.Seed, c, e, t, s, sh),
						})
					}
				}
			}
		}
	}
	return jobs, nil
}

// jobCount is the number of jobs Expand enumerates, computed from the
// list lengths and per-circuit shard counts alone. It saturates just above MaxJobs, so no product
// or sum can overflow however long the lists are.
func jobCount(circs []string, shardsFor map[string]int, envTechs int, scens []Scenario) int {
	sharded, security := 0, 0
	for _, s := range scens {
		if s == ScenarioSecurity {
			security++
		} else {
			sharded++
		}
	}
	total := 0
	for _, c := range circs {
		total += capMul(envTechs, capMul(sharded, shardsFor[c])+security)
		if total > MaxJobs {
			break
		}
	}
	return total
}

// capMul is a*b for non-negative operands, capped at MaxJobs+1.
func capMul(a, b int) int {
	if a != 0 && b > MaxJobs/a {
		return MaxJobs + 1
	}
	return a * b
}

// flowNetlist builds the job's netlist, converting sequential circuits to
// their full-scan combinational view so every registry circuit runs
// through the (combinational) flow stages.
func flowNetlist(name string) (*netlist.Netlist, error) {
	ctor, ok := circuits.Registry[name]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown circuit %q", name)
	}
	n := ctor()
	if n.IsSequential() {
		sv, err := atpg.ScanView(n)
		if err != nil {
			return nil, fmt.Errorf("campaign: scan view of %s: %v", name, err)
		}
		n = sv.Comb
	}
	return n, nil
}

// circuitArtifact is the shared per-circuit state every job of one
// circuit reuses: the flow netlist itself (whose artifact and cone
// caches all sessions over it share), its compiled simulation machine,
// and the canonical collapsed fault list. Everything in it is immutable
// once built — jobs slice the fault list read-only, the netlist is
// levelized and compiled before publication and never mutated by a flow
// stage (the netlist's own caches are internally synchronised) — so one
// artifact serves every shard job and repeated scenario of a circuit
// concurrently instead of each job re-building, re-collapsing and
// re-compiling from scratch.
type circuitArtifact struct {
	n        *netlist.Netlist
	compiled *sim.Compiled
	faults   fault.List
	err      error
}

// artifactCache memoises circuitArtifact per circuit name. The values
// are sync.OnceValue thunks so concurrent jobs of one circuit share a
// single build; constructors are deterministic, so caching by name is
// safe across campaigns. Like the collapsed-fault-list cache it
// replaces, entries live for the process lifetime — deliberately: the
// registry's circuits are small, and a long-lived campaign service
// re-running matrices is exactly the caller the warm netlist, compiled
// machine and cone caches exist for.
var artifactCache sync.Map // circuit name → func() *circuitArtifact

func circuitArtifactFor(name string) *circuitArtifact {
	f, ok := artifactCache.Load(name)
	if !ok {
		f, _ = artifactCache.LoadOrStore(name, sync.OnceValue(func() *circuitArtifact {
			return buildCircuitArtifact(name)
		}))
	}
	return f.(func() *circuitArtifact)()
}

func buildCircuitArtifact(name string) *circuitArtifact {
	n, err := flowNetlist(name)
	if err != nil {
		return &circuitArtifact{err: err}
	}
	// Compile (and thereby levelize) before the netlist is shared: from
	// here on every goroutine performs read-only structural queries and
	// mutex-guarded cache hits only.
	compiled, err := sim.Compile(n)
	if err != nil {
		return &circuitArtifact{err: fmt.Errorf("campaign: compiling %s: %v", name, err)}
	}
	return &circuitArtifact{
		n:        n,
		compiled: compiled,
		faults:   fault.Collapse(n, fault.AllStuckAt(n)),
	}
}

// collapsedFaults returns the circuit's cached canonical fault list.
func collapsedFaults(circuit string) (fault.List, error) {
	art := circuitArtifactFor(circuit)
	return art.faults, art.err
}

func collapsedFaultCount(circuit string) int {
	list, err := collapsedFaults(circuit)
	if err != nil {
		return 0
	}
	return len(list)
}

// ShardBounds returns the [lo, hi) slice of an n-element fault list owned
// by shard i of k. Shards are contiguous and differ in size by at most
// one element; together they partition the list exactly.
func ShardBounds(n, i, k int) (lo, hi int) {
	if k <= 1 {
		return 0, n
	}
	lo = i * n / k
	hi = (i + 1) * n / k
	return lo, hi
}
