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
//     algorithm (stable/unstable content-indexed red-black trees), a MESI
//     cache hierarchy, a DDR bank/row DRAM model with demand-priority
//     scheduling, TailBench-like latency-critical workloads, and an
//     analytical area/power model.
//   - Experiment runners that regenerate every table and figure of the
//     paper's evaluation (Figures 7-11, Tables 4-5).
//
// The type aliases below re-export the internal packages' APIs so that the
// whole system is reachable through this single import:
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
	"io"

	"repro/internal/check"
	"repro/internal/diffengine"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/esx"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/pageforge"
	"repro/internal/placement"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/tailbench"
	"repro/internal/vm"
	"repro/internal/workload"
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

// Config assembles the Table 2 machine and engine parameters.
type Config = platform.Config

// Result carries every measured statistic of one (mode, application) run.
type Result = platform.Result

// DefaultConfig is the paper's setup: 10 cores at 2GHz, 32KB/256KB/32MB
// caches, 2-channel DDR, sleep_millisecs=5, pages_to_scan=400.
func DefaultConfig() Config { return platform.DefaultConfig() }

// Run simulates one configuration running one application deployment
// (10 VMs, one per core) through convergence and steady-state measurement.
func Run(mode Mode, app Profile, cfg Config) (*Result, error) {
	return platform.Run(mode, app, cfg)
}

// Runtime is the tick-driven streaming form of Run: Start, then Step one
// convergence pass or measurement interval at a time, Injecting live events
// (VM spawns and kills, phase flips, host crashes) between ticks. Drain is
// batch completion; Run itself is a thin driver over this loop, so a
// streamed run with the same event schedule is bit-identical to batch.
type Runtime = platform.Runtime

// NewRuntime builds a streaming runtime over one (mode, application) world.
func NewRuntime(mode Mode, app Profile, cfg Config) *Runtime {
	return platform.NewRuntime(mode, app, cfg)
}

// Event is one live perturbation, scheduled via Config.Events or delivered
// mid-run with Runtime.Inject.
type Event = platform.Event

// EventKind discriminates live events.
type EventKind = platform.EventKind

// The live-event kinds.
const (
	EvVMSpawn      = platform.EvVMSpawn      // spawn one VM mid-run
	EvVMKill       = platform.EvVMKill       // tear down VM (field VM)
	EvPhaseChange  = platform.EvPhaseChange  // rewrite a fraction of pages (field Frac)
	EvBalloonStorm = platform.EvBalloonStorm // balloon burst window (Pages, Passes)
	EvFaultStorm   = platform.EvFaultStorm   // fault-rate boost window (Boost, Passes)
	EvCrash        = platform.EvCrash        // host crash at this pass boundary
)

// Latency runs the sojourn-latency phase (Figures 9 and 10) for a measured
// system against its Baseline reference.
func Latency(app Profile, base, system *Result, cfg Config, minQueries int, seed uint64) LatencyResult {
	return platform.Latency(app, base, system, cfg, minQueries, seed)
}

// --- Workloads -------------------------------------------------------------

// Profile describes one TailBench application (Table 3).
type Profile = tailbench.Profile

// LatencyResult aggregates per-VM sojourn latencies.
type LatencyResult = tailbench.LatencyResult

// Image is a generated 10-VM deployment with its page-duplication profile.
type Image = tailbench.Image

// Footprint classifies a deployment's pages in Figure 7's taxonomy.
type Footprint = tailbench.Footprint

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

// Hypervisor owns physical memory and VMs and implements the page-merging
// primitives (remapping, CoW, write protection).
type Hypervisor = vm.Hypervisor

// VM is one virtual machine with its guest-to-host page table.
type VM = vm.VM

// PageID names one guest page (VM index + guest frame number).
type PageID = vm.PageID

// GFN is a guest frame number.
type GFN = vm.GFN

// PFN is a host physical frame number.
type PFN = mem.PFN

// NewHypervisor creates a hypervisor with the given physical memory size.
func NewHypervisor(physBytes uint64) *Hypervisor { return vm.NewHypervisor(physBytes) }

// Scanner is the software KSM engine (Algorithm 1 of the paper).
type Scanner = ksm.Scanner

// Algorithm is the engine-independent KSM state shared by the software
// scanner and the PageForge driver.
type Algorithm = ksm.Algorithm

// KSMOptions are the optional Linux KSM behaviours (use_zero_pages, smart
// scan) supported by both the software scanner and the PageForge driver.
type KSMOptions = ksm.Options

// NewKSMScanner builds a software KSM scanner over a hypervisor, hashing
// pages with jhash2 like the Linux implementation.
func NewKSMScanner(hv *Hypervisor) *Scanner {
	return ksm.NewScanner(ksm.NewAlgorithm(hv, ksm.JHasher{}), ksm.DefaultCosts())
}

// --- The ESX-style algorithm (§4.2 generality) ------------------------------

// ESXTable is the hash-indexed same-page merging algorithm in the style of
// VMware's ESX Server, runnable in software or on the PageForge hardware
// in list mode.
type ESXTable = esx.Table

// NewESXSoftware builds the ESX-style algorithm with software comparisons.
func NewESXSoftware(hv *Hypervisor) *ESXTable {
	return esx.New(hv, esx.SoftwareComparer{Phys: hv.Phys})
}

// NewESXOnPageForge builds the ESX-style algorithm with its exhaustive
// comparisons executed by the PageForge engine in list mode (every Scan
// Table entry's Less and More point at the next entry).
func NewESXOnPageForge(hv *Hypervisor, engine *Engine) *ESXTable {
	return esx.New(hv, esx.NewHardwareComparer(engine))
}

// --- Beyond-the-paper extensions (its §7.2 related-work systems) ------------

// DiffEngine is Difference Engine-style sub-page sharing: identical pages
// merge, similar pages become patches against references, cold pages are
// compressed.
type DiffEngine = diffengine.Manager

// NewDiffEngine builds the sub-page sharing engine over a hypervisor.
func NewDiffEngine(hv *Hypervisor) *DiffEngine {
	return diffengine.New(hv, diffengine.DefaultConfig())
}

// MigrationPlan analyzes a gang of VMs for dedup-aware migration: distinct
// pages cross the wire once, preserving the sharing structure.
type MigrationPlan = migrate.Plan

// PlanGangMigration analyzes the VMs (by ID) for migration.
func PlanGangMigration(hv *Hypervisor, vmIDs []int) *MigrationPlan {
	return migrate.PlanGang(hv, vmIDs)
}

// ReceiveMigration rebuilds a migrated gang on the destination hypervisor.
func ReceiveMigration(r io.Reader, dest *Hypervisor) ([]*VM, error) {
	return migrate.Receive(r, dest)
}

// Fingerprint is a Bloom-filter summary of a VM's page contents for
// sharing-aware placement (Memory Buddies-style).
type Fingerprint = placement.Fingerprint

// FingerprintVM summarizes a VM's resident pages in m filter bits with k
// hash functions.
func FingerprintVM(hv *Hypervisor, vmID int, m uint64, k int) *Fingerprint {
	return placement.FingerprintVM(hv, vmID, m, k)
}

// EstimateSharedDistinct estimates two VMs' common distinct page contents
// from their fingerprints alone.
func EstimateSharedDistinct(a, b *Fingerprint) float64 {
	return placement.EstimateSharedDistinct(a, b)
}

// Colocate greedily packs VMs onto hosts (perHost each), maximizing the
// estimated intra-host sharing.
func Colocate(fps []*Fingerprint, perHost int) placement.Assignment {
	return placement.Colocate(fps, perHost)
}

// --- The PageForge hardware -------------------------------------------------

// Engine is the PageForge hardware module (Scan Table + comparison FSM +
// ECC key generation) hosted in a memory controller.
type Engine = pageforge.Engine

// Driver is the OS side of PageForge: the KSM algorithm driven through the
// hardware's five-function interface.
type Driver = pageforge.Driver

// ScanTable is the hardware table (PFE + 31 Other Pages entries).
type ScanTable = pageforge.ScanTable

// KeyOffsets selects the per-1KB-section lines sampled into the ECC-based
// page hash key (update_ECC_offset).
type KeyOffsets = ecc.KeyOffsets

// PFEInfo is what the get_PFE_info call returns to the OS: the hash key,
// the traversal pointer, and the Scanned/Duplicate/HashReady bits.
type PFEInfo = pageforge.PFEInfo

// InvalidIndex marks a Less/More Scan Table pointer with no target.
const InvalidIndex = pageforge.InvalidIndex

// NumOtherPages is the Scan Table's comparison-entry count (31).
const NumOtherPages = pageforge.NumOtherPages

// NewEngine builds a PageForge hardware module over the hypervisor's
// physical memory, behind a default memory controller and DDR model. Use
// the Table 1 methods (InsertPPN, InsertPFE, UpdatePFE, GetPFEInfo,
// UpdateECCOffset) plus Trigger to drive it directly.
func NewEngine(hv *Hypervisor) *Engine {
	mc := memctrl.New(dram.New(dram.DefaultConfig()), hv.Phys, nil)
	return pageforge.NewEngine(mc)
}

// NewPageForgeDriver builds the OS-side driver running the KSM algorithm
// on the given engine, with hash keys generated by the hardware.
func NewPageForgeDriver(hv *Hypervisor, engine *Engine) *Driver {
	return pageforge.NewDriver(ksm.NewAlgorithm(hv, ksm.NewECCHasher()), engine, pageforge.DefaultDriverConfig())
}

// ECCPageKey computes the 32-bit ECC-based hash key of a 4KB page, the
// reference for what the hardware assembles from snatched ECC codes.
func ECCPageKey(page []byte, offsets KeyOffsets) uint32 { return ecc.PageKey(page, offsets) }

// DefaultKeyOffsets is the profiled sampling configuration.
var DefaultKeyOffsets = ecc.DefaultKeyOffsets

// --- RAS: faults, patrol scrub, degradation ------------------------------

// FaultConfig describes a deterministic injected DRAM fault population:
// transient single/double-bit upsets, stuck-at cells and words, latent
// retention errors, and row-correlated burst windows. The zero value
// injects nothing. Set it on Config.Faults to run a platform configuration
// on faulty silicon.
type FaultConfig = faults.Config

// FaultModel is the seeded fault generator a memory controller consults on
// every ECC-decoded line read (memctrl.Controller.Faults).
type FaultModel = faults.Model

// NewFaultModel builds a fault model; identical configs replay identical
// fault schedules.
func NewFaultModel(cfg FaultConfig) *FaultModel { return faults.NewModel(cfg) }

// DegradeTrip is the UE-rate hysteresis policy that demotes PageForge to
// software KSM when the uncorrectable-error rate on the fetch path climbs.
type DegradeTrip = faults.Trip

// DefaultDegradeTrip trips above ~1% UEs per decode and re-arms below 0.1%.
func DefaultDegradeTrip() DegradeTrip { return faults.DefaultTrip() }

// Scrubber is the controller's patrol-scrub engine: background-priority
// line walks that rewrite correctable errors and log uncorrectable ones.
type Scrubber = memctrl.Scrubber

// --- Experiments -------------------------------------------------------------

// Suite shares simulation runs across the paper's experiments. Its Result
// cache is concurrency-safe (singleflight), its RunAll method fans the
// (mode × app) matrix across a worker pool bounded by Suite.Parallelism,
// and parallel execution is bit-identical to sequential for the same
// seeds.
type Suite = experiments.Suite

// SuiteReporter observes experiment-suite run lifecycle events; attach one
// via Suite.Reporter. Implementations must be safe for concurrent use.
type SuiteReporter = experiments.Reporter

// SuiteProgressReporter streams per-run progress lines and collects a
// wall-clock duration summary across a (possibly parallel) suite run.
type SuiteProgressReporter = experiments.ProgressReporter

// NewSuite builds the full-scale experiment suite (all five applications,
// paper-sized parameters).
func NewSuite() *Suite { return experiments.NewSuite() }

// NewFastSuite is a scaled-down suite for quick demos and CI.
func NewFastSuite() *Suite { return experiments.NewFastSuite() }

// NewSuiteProgressReporter builds a progress reporter writing per-run
// lines to w; its Summary method renders the duration table afterwards.
func NewSuiteProgressReporter(w io.Writer) *SuiteProgressReporter {
	return experiments.NewProgressReporter(w)
}

// AllModes is the paper's full configuration matrix, in run order.
func AllModes() []Mode { return experiments.AllModes() }

// Figure7 measures memory allocation with and without page merging.
func Figure7(s *Suite) (*experiments.Fig7Result, error) { return experiments.Figure7(s) }

// Figure8 compares jhash-based and ECC-based hash-key accuracy.
func Figure8(s *Suite) (*experiments.Fig8Result, error) { return experiments.Figure8(s) }

// Table4 characterizes the software KSM configuration.
func Table4(s *Suite) (*experiments.Table4Result, error) { return experiments.Table4(s) }

// LatencyExperiment produces Figures 9 (mean sojourn latency) and 10 (tail
// latency) for all three configurations.
func LatencyExperiment(s *Suite) (*experiments.LatencyResult, error) { return experiments.Latency(s) }

// Figure11 reports memory bandwidth during the most memory-intensive
// deduplication phase.
func Figure11(s *Suite) (*experiments.Fig11Result, error) { return experiments.Figure11(s) }

// DemandLatency reports the demand-access latency distribution (mean, p50,
// p95, p99, max cycles) for every (application, mode) pair, from the
// measurement phase's latency histogram.
func DemandLatency(s *Suite) (*experiments.DemandLatResult, error) {
	return experiments.DemandLatency(s)
}

// NewDoc starts a machine-readable (-json) experiment document for the
// suite; Add experiment results to it and Encode it to a writer.
func NewDoc(s *Suite) *experiments.Doc { return experiments.NewDoc(s) }

// NewMetricsDoc collects every completed run's full metrics snapshot
// (counters, gauges, latency histograms) into one encodable document.
func NewMetricsDoc(s *Suite) *experiments.MetricsDoc { return experiments.NewMetricsDoc(s) }

// Table5 reports PageForge's operation timing and hardware cost.
func Table5(s *Suite) (*experiments.Table5Result, error) { return experiments.Table5(s) }

// Satori runs the extension experiment on short-lived sharing capture
// versus scanning aggressiveness (the paper's §7.2 discussion of Satori).
func Satori(s *Suite) (*experiments.SatoriResult, error) { return experiments.Satori(s) }

// RASExperiment sweeps DRAM fault rate against merge coverage, bounded
// re-read and patrol-scrub overhead, and the PageForge→KSM degradation
// trip point. A nil or empty rates slice uses DefaultRASRates.
func RASExperiment(s *Suite, rates []float64) (*experiments.RASResult, error) {
	return experiments.RAS(s, rates)
}

// DefaultRASRates spans clean silicon to an always-faulting DIMM.
func DefaultRASRates() []float64 { return experiments.DefaultRASRates() }

// PressureExperiment sweeps the overcommit ratio through an allocation-burst
// storm against the memory-pressure resilience layer: graceful-OOM stalls,
// balloon reclaim, scan backpressure, and the degradation ladder, with the
// invariant checker attached throughout. A nil or empty ratios slice uses
// DefaultPressureRatios.
func PressureExperiment(s *Suite, ratios []float64) (*experiments.PressureResult, error) {
	return experiments.Pressure(s, ratios)
}

// DefaultPressureRatios spans comfortable capacity to a 2x overcommit.
func DefaultPressureRatios() []float64 { return experiments.DefaultPressureRatios() }

// CrashExperiment sweeps host-crash point x checkpoint interval through the
// crash-tolerance layer: deterministic checkpoints, a drawn host crash,
// hint-then-verify recovery of the dedup index, and replay of the lost
// passes — asserting the recovered run is bit-identical to an uninterrupted
// same-seed run at every grid point. Nil or empty slices use the default
// sweeps.
func CrashExperiment(s *Suite, crashPasses, intervals []int) (*experiments.CrashResult, error) {
	return experiments.Crash(s, crashPasses, intervals)
}

// DefaultCrashPasses spans the guaranteed-to-fire convergence window.
func DefaultCrashPasses() []int { return experiments.DefaultCrashPasses() }

// DefaultCheckpointIntervals spans boot-only through every-pass cadence.
func DefaultCheckpointIntervals() []int { return experiments.DefaultCheckpointIntervals() }

// StreamExperiment runs the batch ≡ streaming equivalence sweep: every
// world shape (both engines, the sharded index, a crash-with-recovery
// world) runs once through batch Run with a config-scheduled live-event
// stream and once through a manually stepped Runtime with the same events
// Injected live — asserting Result, per-pass series points, and
// provenance-ledger event streams are all deeply equal.
func StreamExperiment(s *Suite) (*experiments.StreamResult, error) {
	return experiments.Stream(s)
}

// RunStreamBench times the tick-driven streaming runtime against batch Run
// on an identical world — the overhead and bit-identity gate `pageforge
// perfcheck` enforces.
func RunStreamBench(seed uint64) (experiments.StreamBenchResult, error) {
	return experiments.RunStreamBench(seed)
}

// EfficiencyExperiment runs the scan-efficiency attribution sweep: every
// (engine, app) point runs with the provenance ledger and per-pass series
// attached, reporting where the scan budget went (productive merges vs
// churn, checksum instability, fault retries, backpressure sheds) and how
// fast savings converged — then re-runs bare and proves the instrumented
// Result bit-identical.
func EfficiencyExperiment(s *Suite) (*experiments.EfficiencyResult, error) {
	return experiments.Efficiency(s)
}

// RunLedgerOverheadBench times identical sharded scan passes with and
// without a provenance ledger attached — the fresh, baseline-free overhead
// gate `pageforge perfcheck` enforces.
func RunLedgerOverheadBench() (experiments.LedgerOverheadResult, error) {
	return experiments.RunLedgerOverheadBench()
}

// Timeline measures the savings convergence ramp of both engines on one
// application under identical tunables.
func Timeline(s *Suite, app Profile, intervals int) (*experiments.TimelineResult, error) {
	return experiments.Timeline(s, app, intervals)
}

// --- Model-based verification -----------------------------------------------

// Scenario is one randomized verification case: a compact seed + deployment
// shape + engine tunables + fault rate that maps to one bit-reproducible
// platform run (see internal/workload).
type Scenario = workload.Scenario

// VerifyReport summarizes one verified scenario: the checker's audit
// counters for both engines and the differential-equivalence outcome.
type VerifyReport = check.Report

// GenerateScenario draws a random verification scenario from the seed.
func GenerateScenario(seed uint64) Scenario { return workload.Generate(seed) }

// RunScenario runs one scenario through both dedup engines with the
// reference-model invariant checker attached at every scan interval, plus
// the KSM ≡ PageForge merge-set equivalence on fault-free converged runs.
func RunScenario(sc Scenario) (*VerifyReport, error) { return check.RunScenario(sc) }

// ShrinkScenario greedily minimizes a failing scenario; fails must be a
// deterministic predicate (true = still fails). It returns the smallest
// failing scenario found and the number of probe runs spent.
func ShrinkScenario(sc Scenario, fails func(Scenario) bool, maxProbes int) (Scenario, int) {
	return workload.Shrink(sc, fails, maxProbes)
}

// VerifyExperiment runs n randomized scenarios (n <= 0 uses the default of
// 200) with full invariant checking; on failure the offending scenario is
// shrunk and the error carries a ready-to-paste regression test.
func VerifyExperiment(s *Suite, n int) (*experiments.VerifyResult, error) {
	return experiments.Verify(s, n)
}

// --- Observability ----------------------------------------------------------

// Tracer is the bounded ring buffer of simulation events behind
// Config.Trace; WriteJSON serializes it to Chrome trace_event JSON
// (loadable in Perfetto or chrome://tracing). A nil Tracer is off.
type Tracer = obs.Tracer

// MetricsSnapshot is one run's full metric registry state (counters,
// gauges, latency histograms), carried on Result.Metrics.
type MetricsSnapshot = obs.Snapshot

// DefaultTraceCapacity is a ring size comfortably holding a full-scale
// suite run's events.
const DefaultTraceCapacity = obs.DefaultTraceCapacity

// NewTracer builds a tracer with the given event capacity (the ring keeps
// the newest events and counts drops). One tracer may serve many parallel
// runs; each run appears as its own trace process.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// Series is the per-pass time-series collector behind Config.Series: at
// every convergence-pass and measurement-interval boundary the platform
// samples the run's full metric registry into a bounded ring of per-window
// counter deltas and gauge values. One Series may serve many parallel runs
// (one track each); WriteJSON emits the -series artifact. A nil Series is
// off, and an attached one never perturbs the simulation (test-enforced
// bit-identity).
type Series = obs.Series

// SeriesTrack is one run's ring of sampled windows within a Series.
type SeriesTrack = obs.SeriesTrack

// SeriesPoint is one sampled window: counter deltas since the previous
// sample plus instantaneous gauges.
type SeriesPoint = obs.SeriesPoint

// DefaultSeriesCapacity comfortably holds a full-scale run's pass and
// interval boundaries per track.
const DefaultSeriesCapacity = obs.DefaultSeriesCapacity

// NewSeries builds a series collector whose tracks retain the last
// capacity points each (<= 0 uses DefaultSeriesCapacity).
func NewSeries(capacity int) *Series { return obs.NewSeries(capacity) }

// Ledger is the merge-lifecycle provenance stream behind Config.Ledger: a
// bounded per-run ring of lifecycle events (scanned, merged, CoW-broken,
// quarantined, ballooned, ...) with wasted-work cause attribution. Its
// FrameHistory replay is what `pageforge explain` renders, and the verify
// sweep cross-checks the replay against the page tables. A nil Ledger is
// off, and an attached one never perturbs the simulation (test-enforced
// bit-identity).
type Ledger = obs.Ledger

// LedgerEvent is one recorded lifecycle transition.
type LedgerEvent = obs.LedgerEvent

// LedgerAttribution aggregates a ledger's events by kind and wasted-work
// cause — the scan-budget attribution of the efficiency report.
type LedgerAttribution = obs.Attribution

// LedgerNoPFN marks ledger events that are not about a specific frame.
const LedgerNoPFN = obs.LedgerNoPFN

// DefaultLedgerCapacity bounds the event ring when NewLedger is given no
// size.
const DefaultLedgerCapacity = obs.DefaultLedgerCapacity

// NewLedger builds a provenance ledger retaining the last capacity events
// (<= 0 uses DefaultLedgerCapacity).
func NewLedger(capacity int) *Ledger { return obs.NewLedger(capacity) }

// ReadSeriesJSON parses a -series artifact (schema-checked).
func ReadSeriesJSON(r io.Reader) (*obs.SeriesFile, error) { return obs.ReadSeriesJSON(r) }

// ReadLedgerJSON parses a ledger artifact written by `pageforge explain
// -json` (schema-checked).
func ReadLedgerJSON(r io.Reader) (*obs.LedgerFile, error) { return obs.ReadLedgerJSON(r) }

// --- Hardware cost model ------------------------------------------------------

// Estimate is an area/power figure from the analytical model.
type Estimate = power.Estimate

// PageForgeHardware estimates the module's area and power at 22nm
// (Table 5: 0.029 mm², 0.037 W).
func PageForgeHardware() power.PageForgeBreakdown {
	return power.PageForgeModule(power.Tech22HP)
}
