package experiments

import (
	"fmt"

	"repro/internal/mem"
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
	identical bool
}

func newSatoriWorld(numVMs, stablePgs, transPgs int) (*satoriWorld, error) {
	w := &satoriWorld{
		hv:        vm.NewHypervisor(uint64(numVMs*(stablePgs+transPgs)*2+64) * mem.PageSize),
		stablePgs: stablePgs,
		transPgs:  transPgs,
	}
	total := stablePgs + transPgs
	for i := 0; i < numVMs; i++ {
		v := w.hv.NewVM(uint64(total) * mem.PageSize)
		v.Madvise(0, total, true)
		for g := 0; g < stablePgs; g++ {
			// Stable cross-VM duplicates (the background KSM workload).
			if _, err := v.Write(vm.GFN(g), 0, satoriPage(uint64(g)*77+1)); err != nil {
				return nil, err
			}
		}
		w.vms = append(w.vms, v)
	}
	if err := w.flip(0); err != nil { // start divergent
		return nil, err
	}
	return w, nil
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
func (w *satoriWorld) flip(phase int) error {
	w.identical = phase%2 == 1
	for g := 0; g < w.transPgs; g++ {
		for i, v := range w.vms {
			var seed uint64
			if w.identical {
				seed = uint64(phase)*1000003 + uint64(g)
			} else {
				seed = uint64(phase)*1000003 + uint64(g)*131 + uint64(i+1)*7777777
			}
			if _, err := v.Write(vm.GFN(w.stablePgs+g), 0, satoriPage(seed)); err != nil {
				return err
			}
		}
	}
	return nil
}

// sharedTransientPages counts transient guest pages currently backed by a
// frame shared with another guest page.
func (w *satoriWorld) sharedTransientPages() int {
	n := 0
	for _, v := range w.vms {
		for g := 0; g < w.transPgs; g++ {
			if pfn, ok := v.Resolve(vm.GFN(w.stablePgs + g)); ok {
				if w.hv.Shared(pfn) {
					n++
				}
			}
		}
	}
	return n
}

// Satori runs the sweep, one point per (engine, aggressiveness) on the
// suite's worker pool. Aggressiveness is pages_to_scan per 5ms interval;
// the transient sharing window lasts `life` intervals.
func Satori(s *Suite) (*SatoriResult, error) {
	const (
		numVMs    = 10
		stablePgs = 120
		transPgs  = 40
		life      = 8
		intervals = 96
	)
	engines, scanRates := []string{"ksm", "pageforge"}, []int{400, 1600, 6400}
	rows := make([]SatoriRow, len(engines)*len(scanRates))
	err := s.each(len(rows), func(i int) error {
		engine, pts := engines[i/len(scanRates)], scanRates[i%len(scanRates)]
		w, err := newSatoriWorld(numVMs, stablePgs, transPgs)
		if err != nil {
			return fmt.Errorf("experiments: satori world: %w", err)
		}
		st := newStepper(w.hv, s.Cfg, engine == "pageforge", s.Cfg.IntervalCycles())
		captured, possible := 0, 0
		for k := 0; k < intervals; k++ {
			if k%life == 0 {
				if err := w.flip(k/life + 1); err != nil {
					return fmt.Errorf("experiments: satori transient rewrite: %w", err)
				}
			}
			st.step(pts)
			if w.identical {
				captured += w.sharedTransientPages()
				possible += numVMs * transPgs
			}
		}
		rows[i] = SatoriRow{Engine: engine, PagesToScan: pts,
			CapturedPct: float64(captured) / float64(possible) * 100, CoreBusyPct: st.corePct()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SatoriResult{Rows: rows, TransientLifeIntervals: life}, nil
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
