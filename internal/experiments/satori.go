package experiments

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/pageforge"
	"repro/internal/vm"
)

// The Satori experiment (an extension beyond the paper's evaluation, built
// on its §7.2 discussion): Satori (Miłós et al., ATC 2009) observed that
// many sharing opportunities "only last a few seconds" and concluded that
// periodic scanning cannot exploit them. The paper argues PageForge
// changes that calculus — aggressive scan rates cost almost no core
// cycles. This experiment creates transient cross-VM duplicates with a
// bounded lifetime and measures how much of that sharing each engine
// captures at increasing aggressiveness, against its core-cycle price.

// SatoriRow is one (engine, pages_to_scan) data point.
type SatoriRow struct {
	Engine      string
	PagesToScan int
	// CapturedPct is the fraction of achievable transient page-sharing
	// (integrated over time) actually realized.
	CapturedPct float64
	// CoreBusyPct is the engine's core consumption as a share of one core.
	CoreBusyPct float64
}

// SatoriResult is the sweep.
type SatoriResult struct {
	Rows []SatoriRow
	// TransientLifeIntervals is how long each sharing window lasts.
	TransientLifeIntervals int
}

// satoriWorld builds VMs with a stable duplicated region (background) and
// a transient region whose contents flip between globally-identical and
// per-VM-unique every `life` intervals.
type satoriWorld struct {
	hv        *vm.Hypervisor
	vms       []*vm.VM
	stablePgs int
	transPgs  int
	life      int
	phase     int // generation counter for transient contents
	identical bool
}

func newSatoriWorld(numVMs, stablePgs, transPgs, life int) *satoriWorld {
	w := &satoriWorld{
		hv:        vm.NewHypervisor(uint64(numVMs*(stablePgs+transPgs)*2+64) * mem.PageSize),
		stablePgs: stablePgs,
		transPgs:  transPgs,
		life:      life,
	}
	total := stablePgs + transPgs
	for i := 0; i < numVMs; i++ {
		v := w.hv.NewVM(uint64(total) * mem.PageSize)
		v.Madvise(0, total, true)
		for g := 0; g < stablePgs; g++ {
			// Stable cross-VM duplicates (the background KSM workload).
			v.Write(vm.GFN(g), 0, satoriPage(uint64(g)*77+1))
		}
		w.vms = append(w.vms, v)
	}
	w.flip(0) // start divergent
	return w
}

func satoriPage(seed uint64) []byte {
	p := make([]byte, mem.PageSize)
	x := seed*0x9E3779B97F4A7C15 | 1
	for i := 0; i+8 <= len(p); i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		v := x * 0x2545F4914F6CDD1D
		for j := 0; j < 8; j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	return p
}

// flip advances the transient region: odd phases are identical across VMs
// (a shared disk-cache read), even phases unique per VM.
func (w *satoriWorld) flip(phase int) {
	w.phase = phase
	w.identical = phase%2 == 1
	for g := 0; g < w.transPgs; g++ {
		for i, v := range w.vms {
			var seed uint64
			if w.identical {
				seed = uint64(phase)*1000003 + uint64(g)
			} else {
				seed = uint64(phase)*1000003 + uint64(g)*131 + uint64(i+1)*7777777
			}
			v.Write(vm.GFN(w.stablePgs+g), 0, satoriPage(seed))
		}
	}
}

// sharedTransientPages counts transient guest pages currently backed by a
// frame shared with another guest page.
func (w *satoriWorld) sharedTransientPages() int {
	n := 0
	for _, v := range w.vms {
		for g := 0; g < w.transPgs; g++ {
			if pfn, ok := v.Resolve(vm.GFN(w.stablePgs + g)); ok {
				if w.hv.MapperCount(pfn) > 1 {
					n++
				}
			}
		}
	}
	return n
}

// Satori runs the sweep. Aggressiveness is pages_to_scan per 5ms interval;
// the transient sharing window lasts `life` intervals.
func Satori(s *Suite) (*SatoriResult, error) {
	const (
		numVMs    = 10
		stablePgs = 120
		transPgs  = 40
		life      = 8
		intervals = 96
	)
	interval := s.Cfg.IntervalCycles()
	res := &SatoriResult{TransientLifeIntervals: life}

	run := func(engine string, pts int) (SatoriRow, error) {
		w := newSatoriWorld(numVMs, stablePgs, transPgs, life)
		var busy uint64
		captured, possible := 0, 0

		var scanner *ksm.Scanner
		var driver *pageforge.Driver
		switch engine {
		case "ksm":
			scanner = ksm.NewScanner(ksm.NewAlgorithm(w.hv, ksm.JHasher{}), s.Cfg.KSMCosts)
		case "pageforge":
			mc := memctrl.New(dram.New(s.Cfg.DRAM), w.hv.Phys, nil)
			driver = pageforge.NewDriver(ksm.NewAlgorithm(w.hv, ksm.NewECCHasher()),
				pageforge.NewEngine(mc), s.Cfg.Driver)
		default:
			return SatoriRow{}, fmt.Errorf("experiments: unknown engine %q", engine)
		}

		pfNow := uint64(0)
		for k := 0; k < intervals; k++ {
			if k%life == 0 {
				w.flip(k/life + 1)
			}
			start := uint64(k) * interval
			if scanner != nil {
				before := scanner.Cycles.Total()
				scanner.ScanBatch(pts)
				busy += scanner.Cycles.Total() - before
			} else {
				if pfNow < start {
					pfNow = start
				}
				end := start + interval
				cc := driver.CoreCycles
				_, _, pfNow = driver.ScanBatch(pts, pfNow, end)
				busy += driver.CoreCycles - cc
			}
			if w.identical {
				captured += w.sharedTransientPages()
				possible += numVMs * transPgs
			}
		}
		row := SatoriRow{Engine: engine, PagesToScan: pts}
		if possible > 0 {
			row.CapturedPct = float64(captured) / float64(possible) * 100
		}
		row.CoreBusyPct = float64(busy) / float64(uint64(intervals)*interval) * 100
		return row, nil
	}

	for _, engine := range []string{"ksm", "pageforge"} {
		for _, pts := range []int{400, 1600, 6400} {
			row, err := run(engine, pts)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// String renders the sweep.
func (r *SatoriResult) String() string {
	t := &table{
		title: fmt.Sprintf("Satori extension: capturing sharing that lives %d intervals (~%dms)",
			r.TransientLifeIntervals, r.TransientLifeIntervals*5),
		header: []string{"Engine", "pages_to_scan", "captured sharing", "core busy"},
	}
	for _, row := range r.Rows {
		t.add(row.Engine, fmt.Sprintf("%d", row.PagesToScan),
			fmt.Sprintf("%.1f%%", row.CapturedPct), fmt.Sprintf("%.1f%%", row.CoreBusyPct))
	}
	t.notes = append(t.notes,
		"Satori (ATC'09): periodic scanning misses short-lived sharing; the paper (§7.2)",
		"argues PageForge's near-free scanning changes that. Aggressive software scanning",
		"buys capture with core cycles; PageForge buys it with memory-controller time.")
	return t.String()
}
