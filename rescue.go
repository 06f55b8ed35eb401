// Package rescue is the public facade of the RESCUE toolset — a Go
// reproduction of "RESCUE: Interdependent Challenges of Reliability,
// Security and Quality in Nanoelectronic Systems" (Jenihhin et al.,
// DATE 2020).
//
// The toolset spans the three interdependent extra-functional aspects
// the paper is built around:
//
//   - Quality: gate-level netlists, logic simulation, ATPG (PODEM),
//     fault simulation, untestable-fault identification, SBST for CPUs
//     and GPGPUs, March tests and FinFET DfT for SRAMs, IEEE 1687
//     reconfigurable scan networks.
//   - Reliability: soft-error FIT estimation and monitors, transient
//     fault injection, clock-network SET analysis, BTI aging and
//     software rejuvenation, cross-layer fault management, ISO 26262
//     functional-safety metrics and tool-confidence cross-checks,
//     ML-based failure-rate prediction, dynamic-slicing FI acceleration.
//   - Security: SRAM PUFs with fuzzy extraction, timing/power
//     side-channel verification and attacks, laser fault injection,
//     neural anomaly detection of fault attacks.
//
// The facade re-exports the most common entry points; the full API lives
// in the internal packages, organised one package per subsystem (see
// DESIGN.md for the inventory and the experiment index).
package rescue

import (
	"context"
	"fmt"

	"rescue/internal/atpg"
	"rescue/internal/campaign"
	"rescue/internal/circuits"
	"rescue/internal/core"
	"rescue/internal/fault"
	"rescue/internal/faultsim"
	"rescue/internal/logic"
	"rescue/internal/netlist"
	"rescue/internal/seu"
)

// Core structural types.
type (
	// Netlist is a gate-level circuit.
	Netlist = netlist.Netlist
	// Gate is one netlist node.
	Gate = netlist.Gate
	// Vector is a logic-value vector (test pattern / response).
	Vector = logic.Vector
	// Fault is a stuck-at or transient fault instance.
	Fault = fault.Fault
	// FaultList is an ordered fault list.
	FaultList = fault.List
	// FlowConfig configures the holistic Fig. 2 flow.
	FlowConfig = core.FlowConfig
	// FlowReport is the holistic flow outcome.
	FlowReport = core.Report
	// FlowStage identifies one independently-runnable flow stage.
	FlowStage = core.StageID
)

// Campaign orchestration types (see internal/campaign).
type (
	// CampaignMatrix declares a campaign's job cross product.
	CampaignMatrix = campaign.Matrix
	// CampaignConfig tunes parallelism and progress streaming.
	CampaignConfig = campaign.Config
	// CampaignJob is one expanded matrix cell.
	CampaignJob = campaign.Job
	// CampaignResult is one job outcome.
	CampaignResult = campaign.Result
	// CampaignSummary is the deterministic campaign-level aggregate.
	CampaignSummary = campaign.Summary
	// CampaignScenario selects the stages a job runs.
	CampaignScenario = campaign.Scenario
	// CampaignCheckpoint is an open crash-safe checkpoint log bound to
	// one campaign matrix (see internal/campaign's durability layer).
	CampaignCheckpoint = campaign.Checkpoint
	// CampaignService models one campaign run from admission to result
	// (queued, running, then done, failed or canceled) and serves the
	// per-run HTTP API (/status, /jobs, /result) with graceful-drain
	// shutdown; CampaignServer mounts the same API under /runs/{id}.
	CampaignService = campaign.Service
	// CampaignServiceStatus is the /status payload: progress counters
	// plus the per-aspect rollups over the results so far.
	CampaignServiceStatus = campaign.ServiceStatus
	// CampaignServer is the long-lived multi-run server: POST /runs
	// admission with a bounded backpressured queue, bounded-concurrency
	// execution over shared caches, durable per-run directories, and
	// crash/restart recovery.
	CampaignServer = campaign.Server
	// CampaignServerConfig tunes the multi-run server (base directory,
	// queue capacity, concurrent runs, per-run engine config).
	CampaignServerConfig = campaign.ServerConfig
	// CampaignRunInfo is one entry of the server's /runs listing.
	CampaignRunInfo = campaign.RunInfo
	// CampaignRunState is a server-managed run's lifecycle state.
	CampaignRunState = campaign.RunState
)

// Circuit returns a named benchmark circuit from the built-in registry
// (c17, s27, rca8..32, mul4/8, parity16/64, dec4, alu8, cnt8, lfsr16).
func Circuit(name string) (*Netlist, error) {
	ctor, ok := circuits.Registry[name]
	if !ok {
		return nil, fmt.Errorf("rescue: unknown circuit %q (have %v)", name, circuits.Names())
	}
	return ctor(), nil
}

// CircuitNames lists the built-in benchmark circuits.
func CircuitNames() []string { return circuits.Names() }

// AllStuckAt enumerates the collapsed single stuck-at fault list.
func AllStuckAt(n *Netlist) FaultList {
	return fault.Collapse(n, fault.AllStuckAt(n))
}

// GenerateTests runs the full ATPG flow (random bootstrap, PODEM with
// test-and-drop, compaction) and returns the tests with per-fault
// classification.
func GenerateTests(n *Netlist, faults FaultList, seed int64) (*atpg.Result, error) {
	return atpg.GenerateTests(n, faults, atpg.FlowOptions{
		RandomPatterns: 64, Seed: seed, Compact: true,
	})
}

// GenerateTestsParallel is GenerateTests with the deterministic PODEM
// phase fanned over the given worker count. Results are byte-identical
// to the serial flow at every parallelism level.
func GenerateTestsParallel(n *Netlist, faults FaultList, seed int64, workers int) (*atpg.Result, error) {
	return atpg.GenerateTests(n, faults, atpg.FlowOptions{
		RandomPatterns: 64, Seed: seed, Compact: true, Parallelism: workers,
	})
}

// FaultSimSession is a persistent fault-dropping simulation kernel: it
// keeps packed machines and cone caches warm across Simulate calls and
// drops each fault on first detection. See faultsim.Session.
type FaultSimSession = faultsim.Session

// NewFaultSimSession opens a session over the circuit and fault list.
func NewFaultSimSession(n *Netlist, faults FaultList) (*FaultSimSession, error) {
	return faultsim.NewSession(n, faults)
}

// FaultSimulate runs parallel-pattern fault simulation with dropping,
// using the cone-restricted incremental engine: per 64-pattern block,
// each faulty machine re-evaluates only the fault's fanout cone. It
// wraps a single-use FaultSimSession.
func FaultSimulate(n *Netlist, faults FaultList, patterns []Vector) (*faultsim.Report, error) {
	return faultsim.Run(n, faults, patterns)
}

// FaultSimulateFull runs the full-pass reference engine. Results are
// bit-identical to FaultSimulate; it exists as a differential-testing
// oracle and cost baseline (Report.GateEvals shows the cone advantage).
func FaultSimulateFull(n *Netlist, faults FaultList, patterns []Vector) (*faultsim.Report, error) {
	return faultsim.RunFull(n, faults, patterns)
}

// RandomPatterns generates deterministic random test patterns.
func RandomPatterns(n *Netlist, count int, seed int64) []Vector {
	return faultsim.RandomPatterns(n, count, seed)
}

// RunHolisticFlow drives the Fig. 2 quality→reliability→safety→security
// flow over one design.
func RunHolisticFlow(cfg FlowConfig) (*FlowReport, error) { return core.RunFlow(cfg) }

// RunFlowStages runs a subset of the Fig. 2 flow stages over one design;
// the context is checked at every stage boundary.
func RunFlowStages(ctx context.Context, cfg FlowConfig, stages ...FlowStage) (*FlowReport, error) {
	return core.RunStages(ctx, cfg, stages...)
}

// FlowStages lists every flow stage in canonical Fig. 2 order.
func FlowStages() []FlowStage { return core.AllStages() }

// RunCampaign expands the matrix and fans its jobs across a worker pool;
// the summary is byte-identical at any parallelism level. See
// internal/campaign for sharding, seed derivation and cancellation
// semantics, and cmd/rescue-campaign for the CLI.
func RunCampaign(ctx context.Context, m CampaignMatrix, cfg CampaignConfig) (*CampaignSummary, error) {
	return campaign.Run(ctx, m, cfg)
}

// RunCampaignCheckpointed is RunCampaign with a crash-safe checkpoint
// log in dir: every completed job is fsync'd to dir/checkpoint.jsonl,
// an interrupted run resumes from the log on the next call, and the
// final dir/campaign.json is byte-identical to an uninterrupted run at
// any parallelism level.
func RunCampaignCheckpointed(ctx context.Context, dir string, m CampaignMatrix, cfg CampaignConfig) (*CampaignSummary, error) {
	return campaign.RunCheckpointed(ctx, dir, m, cfg)
}

// ResumeCampaign opens dir's checkpoint log, verifies it against the
// matrix, and replays the durable results (tolerating a torn final
// record). Run the returned checkpoint to finish the remaining jobs.
func ResumeCampaign(dir string, m CampaignMatrix) (*CampaignCheckpoint, error) {
	return campaign.Resume(dir, m)
}

// NewCampaignService wraps a campaign in the live HTTP API; see
// CampaignService and cmd/rescue-campaign's -serve flag.
func NewCampaignService(m CampaignMatrix, cfg CampaignConfig) (*CampaignService, error) {
	return campaign.NewService(m, cfg)
}

// NewCampaignServer starts the long-lived multi-run campaign server:
// it recovers any unfinished runs from the base directory and begins
// executing queued runs immediately; expose its Handler (or Serve) to
// accept submissions. See cmd/rescue-campaign's -multi flag.
func NewCampaignServer(cfg CampaignServerConfig) (*CampaignServer, error) {
	return campaign.NewServer(cfg)
}

// Fig1Distribution regenerates the paper's Fig. 1 research-results
// distribution from the publication registry.
func Fig1Distribution() []core.Bubble { return core.Distribution() }

// RenderFig1 renders Fig. 1 as a text table.
func RenderFig1() string { return core.RenderFig1() }

// MemoryFITPerMbit returns the raw soft-error rate of one megabit of
// SRAM in the given environment and technology — the Section III.B
// "hundreds of FITs" figure.
func MemoryFITPerMbit(env seu.Environment, tech seu.Technology) float64 {
	return seu.MemoryFITPerMbit(env, tech)
}
