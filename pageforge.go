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
// This package is the API the command and the examples use: the experiment
// registry, the simulated machine's configurations, and the few
// constructors the examples drive directly. Everything else lives in the
// internal packages.
//
//	import pageforgesim "repro"
//
//	suite := pageforgesim.NewSuite()
//	fig7, err := pageforgesim.Experiments().Select("fig7")
//	arts, err := fig7[0].Run(suite)
//	fmt.Println(arts[0].Text)
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

// Experiments returns the experiment registry: every harness `pageforge
// run -exp` accepts, in output order. Set.Select resolves one name (or
// "all"); each Experiment's Run renders its artifacts from the suite.
func Experiments() experiments.Set { return experiments.Registry() }
