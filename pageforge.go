// Package pageforgesim is a complete, simulation-based reproduction of
// "PageForge: A Near-Memory Content-Aware Page-Merging Architecture"
// (Skarlatos, Kim, Torrellas — MICRO-50, 2017).
//
// It provides, built from scratch on the Go standard library:
//
//   - The PageForge hardware model: the Scan Table (PFE + 31 Other Pages
//     entries), the pairwise page-comparison state machine in the memory
//     controller, background ECC-based hash-key generation, and the
//     five-function OS interface of the paper's Table 1.
//   - Every substrate the paper's evaluation depends on: a SECDED (72,64)
//     ECC engine, the Linux jhash2 function, a hypervisor with
//     guest-to-host page mappings and copy-on-write, RedHat's KSM
//     algorithm (stable/unstable content-indexed red-black trees), a
//     shared set-associative L3, a DDR bank/row DRAM model with demand-priority
//     scheduling, TailBench-like latency-critical workloads, and an
//     analytical area/power model.
//   - Experiment runners that regenerate every table and figure of the
//     paper's evaluation (Figures 7-11, Tables 4-5).
//
// This package is the API the command and the examples use: the paper's
// experiment runners, the simulated machine's configurations, and the few
// constructors the examples drive directly. Everything else lives in the
// internal packages.
//
//	import pageforgesim "repro"
//
//	suite := pageforgesim.NewSuite()
//	fig7, err := pageforgesim.Figure7(suite)
//	fmt.Println(fig7)
//
// See DESIGN.md for the system inventory and the paper-to-module map, and
// EXPERIMENTS.md for measured-vs-paper results.
package pageforgesim

import (
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/esx"
	"repro/internal/experiments"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/pageforge"
	"repro/internal/platform"
	"repro/internal/tailbench"
	"repro/internal/vm"
)

// --- Simulated machine and configurations ---------------------------------

// Mode selects one of the paper's three configurations.
type Mode = platform.Mode

// The three evaluated configurations (§5.3 of the paper).
const (
	Baseline  = platform.Baseline  // no page merging
	KSM       = platform.KSM       // RedHat's software algorithm
	PageForge = platform.PageForge // the hardware architecture
)

// Result carries every measured statistic of one (mode, application) run.
type Result = platform.Result

// DefaultConfig is the paper's setup: 10 cores at 2GHz, 32KB/256KB/32MB
// caches, 2-channel DDR, sleep_millisecs=5, pages_to_scan=400.
func DefaultConfig() platform.Config { return platform.DefaultConfig() }

// Run simulates one configuration running one application deployment
// (10 VMs, one per core) through convergence and steady-state measurement.
func Run(mode Mode, app Profile, cfg platform.Config) (*Result, error) {
	return platform.Run(mode, app, cfg)
}

// Latency runs the sojourn-latency phase (Figures 9 and 10) for a measured
// system against its Baseline reference.
func Latency(app Profile, base, system *Result, cfg platform.Config, minQueries int, seed uint64) tailbench.LatencyResult {
	return platform.Latency(app, base, system, cfg, minQueries, seed)
}

// --- Workloads -------------------------------------------------------------

// Profile describes one TailBench application (Table 3).
type Profile = tailbench.Profile

// Image is a generated 10-VM deployment with its page-duplication profile.
type Image = tailbench.Image

// Profiles returns the five TailBench applications with Table 3's loads.
func Profiles() []Profile { return tailbench.Profiles() }

// ProfileByName finds an application profile ("img_dnn", "masstree",
// "moses", "silo", "sphinx"), or nil.
func ProfileByName(name string) *Profile { return tailbench.ProfileByName(name) }

// BuildImage deploys numVMs copies of the application with its measured
// cross-VM page-duplication profile.
func BuildImage(p Profile, numVMs, physFrames int, seed uint64) (*Image, error) {
	return tailbench.BuildImage(p, numVMs, physFrames, seed)
}

// --- Virtualization and deduplication substrates ---------------------------

// VM is one virtual machine with its guest-to-host page table.
type VM = vm.VM

// GFN is a guest frame number.
type GFN = vm.GFN

// PFN is a host physical frame number.
type PFN = mem.PFN

// NewHypervisor creates a hypervisor with the given physical memory size.
func NewHypervisor(physBytes uint64) *vm.Hypervisor { return vm.NewHypervisor(physBytes) }

// NewKSMScanner builds a software KSM scanner over a hypervisor, hashing
// pages with jhash2 like the Linux implementation.
func NewKSMScanner(hv *vm.Hypervisor) *ksm.Scanner {
	return ksm.NewScanner(ksm.NewAlgorithm(hv, ksm.JHasher{}), ksm.DefaultCosts())
}

// --- The ESX-style algorithm (§4.2 generality) ------------------------------

// NewESXSoftware builds the ESX-style algorithm with software comparisons.
func NewESXSoftware(hv *vm.Hypervisor) *esx.Table {
	return esx.New(hv, esx.SoftwareComparer{Phys: hv.Phys})
}

// NewESXOnPageForge builds the ESX-style algorithm with its exhaustive
// comparisons executed by the PageForge engine in list mode (every Scan
// Table entry's Less and More point at the next entry).
func NewESXOnPageForge(hv *vm.Hypervisor, engine *Engine) *esx.Table {
	return esx.New(hv, esx.NewHardwareComparer(engine))
}

// --- The PageForge hardware -------------------------------------------------

// Engine is the PageForge hardware module (Scan Table + comparison FSM +
// ECC key generation) hosted in a memory controller.
type Engine = pageforge.Engine

// InvalidIndex marks a Less/More Scan Table pointer with no target.
const InvalidIndex = pageforge.InvalidIndex

// NewEngine builds a PageForge hardware module over the hypervisor's
// physical memory, behind a default memory controller and DDR model. Use
// the Table 1 methods (InsertPPN, InsertPFE, UpdatePFE, GetPFEInfo,
// UpdateECCOffset) plus Trigger to drive it directly.
func NewEngine(hv *vm.Hypervisor) *Engine {
	mc := memctrl.New(dram.New(dram.DefaultConfig()), hv.Phys, nil)
	return pageforge.NewEngine(mc)
}

// ECCPageKey computes the 32-bit ECC-based hash key of a 4KB page, the
// reference for what the hardware assembles from snatched ECC codes.
func ECCPageKey(page []byte, offsets ecc.KeyOffsets) uint32 { return ecc.PageKey(page, offsets) }

// DefaultKeyOffsets is the profiled sampling configuration.
var DefaultKeyOffsets = ecc.DefaultKeyOffsets

// --- Experiments -------------------------------------------------------------

// NewSuite builds the full-scale experiment suite (all five applications,
// paper-sized parameters).
func NewSuite() *experiments.Suite { return experiments.NewSuite() }

// NewFastSuite is a scaled-down suite for quick demos and CI.
func NewFastSuite() *experiments.Suite { return experiments.NewFastSuite() }

// Figure7 measures memory allocation with and without page merging.
func Figure7(s *experiments.Suite) (*experiments.Fig7Result, error) { return experiments.Figure7(s) }

// Figure8 compares jhash-based and ECC-based hash-key accuracy.
func Figure8(s *experiments.Suite) (*experiments.Fig8Result, error) { return experiments.Figure8(s) }

// Table4 characterizes the software KSM configuration.
func Table4(s *experiments.Suite) (*experiments.Table4Result, error) { return experiments.Table4(s) }

// LatencyExperiment produces Figures 9 (mean sojourn latency) and 10 (tail
// latency) for all three configurations.
func LatencyExperiment(s *experiments.Suite) (*experiments.LatencyResult, error) {
	return experiments.Latency(s)
}

// Figure11 reports memory bandwidth during the most memory-intensive
// deduplication phase.
func Figure11(s *experiments.Suite) (*experiments.Fig11Result, error) { return experiments.Figure11(s) }

// DemandLatency reports the demand-access latency distribution (mean, p50,
// p95, p99, max cycles) for every (application, mode) pair, from the
// measurement phase's latency histogram.
func DemandLatency(s *experiments.Suite) (*experiments.DemandLatResult, error) {
	return experiments.DemandLatency(s)
}

// NewMetricsDoc collects every completed run's full metrics snapshot
// (counters, gauges, latency histograms) into one encodable document.
func NewMetricsDoc(s *experiments.Suite) *experiments.MetricsDoc { return experiments.NewMetricsDoc(s) }

// Table5 reports PageForge's operation timing and hardware cost.
func Table5(s *experiments.Suite) (*experiments.Table5Result, error) { return experiments.Table5(s) }

// Satori runs the extension experiment on short-lived sharing capture
// versus scanning aggressiveness (the paper's §7.2 discussion of Satori).
func Satori(s *experiments.Suite) (*experiments.SatoriResult, error) { return experiments.Satori(s) }

// RASExperiment sweeps DRAM fault rate against merge coverage, bounded
// re-read and patrol-scrub overhead, and the PageForge→KSM degradation
// trip point. A nil or empty rates slice uses experiments.DefaultRASRates.
func RASExperiment(s *experiments.Suite, rates []float64) (*experiments.RASResult, error) {
	return experiments.RAS(s, rates)
}

// PressureExperiment sweeps the overcommit ratio through an allocation-burst
// storm against the memory-pressure resilience layer: graceful-OOM stalls,
// balloon reclaim, scan backpressure, and the degradation ladder, with the
// invariant checker attached throughout. A nil or empty ratios slice uses
// experiments.DefaultPressureRatios.
func PressureExperiment(s *experiments.Suite, ratios []float64) (*experiments.PressureResult, error) {
	return experiments.Pressure(s, ratios)
}

// CrashExperiment sweeps host-crash point x checkpoint interval through the
// crash-tolerance layer: deterministic checkpoints, a drawn host crash,
// hint-then-verify recovery of the dedup index, and replay of the lost
// passes — asserting the recovered run is bit-identical to an uninterrupted
// same-seed run at every grid point. Nil or empty slices use the default
// sweeps.
func CrashExperiment(s *experiments.Suite, crashPasses, intervals []int) (*experiments.CrashResult, error) {
	return experiments.Crash(s, crashPasses, intervals)
}

// StreamExperiment runs the batch ≡ streaming equivalence sweep: every
// world shape (both engines, the sharded index, a crash-with-recovery
// world) runs once through batch Run with a config-scheduled live-event
// stream and once through a manually stepped Runtime with the same events
// Injected live — asserting Result, per-pass series points, and
// provenance-ledger event streams are all deeply equal.
func StreamExperiment(s *experiments.Suite) (*experiments.StreamResult, error) {
	return experiments.Stream(s)
}

// EfficiencyExperiment runs the scan-efficiency attribution sweep: every
// (engine, app) point runs with the provenance ledger and per-pass series
// attached, reporting where the scan budget went (productive merges vs
// churn, checksum instability, fault retries, backpressure sheds) and how
// fast savings converged — then re-runs bare and proves the instrumented
// Result bit-identical.
func EfficiencyExperiment(s *experiments.Suite) (*experiments.EfficiencyResult, error) {
	return experiments.Efficiency(s)
}

// Timeline measures the savings convergence ramp of both engines on one
// application under identical tunables.
func Timeline(s *experiments.Suite, app Profile, intervals int) (*experiments.TimelineResult, error) {
	return experiments.Timeline(s, app, intervals)
}

// --- Model-based verification -----------------------------------------------

// VerifyExperiment runs n >= 1 randomized scenarios with full invariant
// checking; on failure the offending scenario is shrunk and the error
// carries a ready-to-paste regression test.
func VerifyExperiment(s *experiments.Suite, n int) (*experiments.VerifyResult, error) {
	return experiments.Verify(s, n)
}

// --- Observability ----------------------------------------------------------

// Tracer is the bounded ring buffer of simulation events behind
// platform.Config.Trace; WriteJSON serializes it to Chrome trace_event JSON
// (loadable in Perfetto or chrome://tracing). A nil Tracer is off.
type Tracer = obs.Tracer

// DefaultTraceCapacity is a ring size comfortably holding a full-scale
// suite run's events.
const DefaultTraceCapacity = obs.DefaultTraceCapacity

// NewTracer builds a tracer with the given event capacity (the ring keeps
// the newest events and counts drops). One tracer may serve many parallel
// runs; each run appears as its own trace process.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// Series is the per-pass time-series collector behind
// platform.Config.Series: at every convergence-pass and measurement-interval
// boundary the platform samples the run's full metric registry into a
// bounded ring of per-window counter deltas and gauge values. One Series may serve many parallel runs
// (one track each); WriteJSON emits the -series artifact. A nil Series is
// off, and an attached one never perturbs the simulation (test-enforced
// bit-identity).
type Series = obs.Series

// DefaultSeriesCapacity comfortably holds a full-scale run's pass and
// interval boundaries per track.
const DefaultSeriesCapacity = obs.DefaultSeriesCapacity

// NewSeries builds a series collector whose tracks retain the last
// capacity points each (<= 0 uses DefaultSeriesCapacity).
func NewSeries(capacity int) *Series { return obs.NewSeries(capacity) }

// LedgerNoPFN marks ledger events that are not about a specific frame.
const LedgerNoPFN = obs.LedgerNoPFN

// NewLedger builds a provenance ledger retaining the last capacity events
// (<= 0 uses obs.DefaultLedgerCapacity).
func NewLedger(capacity int) *obs.Ledger { return obs.NewLedger(capacity) }
