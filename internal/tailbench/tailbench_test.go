package tailbench

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestProfilesWellFormed(t *testing.T) {
	ps := Profiles()
	if len(ps) != 5 {
		t.Fatalf("%d profiles, want 5 (Table 3)", len(ps))
	}
	wantQPS := map[string]float64{
		"img_dnn": 500, "masstree": 500, "moses": 100, "silo": 2000, "sphinx": 1,
	}
	for _, p := range ps {
		if q, ok := wantQPS[p.Name]; !ok || p.QPS != q {
			t.Errorf("%s QPS = %g, want %g (Table 3)", p.Name, p.QPS, q)
		}
		if sum := p.UnmergeableFrac + p.ZeroFrac + p.DupFrac; math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s composition sums to %g", p.Name, sum)
		}
		u := p.Utilization()
		if u <= 0.1 || u >= 0.9 {
			t.Errorf("%s utilization %g outside stable open-loop range", p.Name, u)
		}
	}
	// Composition averages must match Figure 7's system-wide breakdown.
	var unm, zero, dup float64
	for _, p := range ps {
		unm += p.UnmergeableFrac
		zero += p.ZeroFrac
		dup += p.DupFrac
	}
	n := float64(len(ps))
	if math.Abs(unm/n-0.45) > 0.02 || math.Abs(zero/n-0.05) > 0.02 || math.Abs(dup/n-0.50) > 0.02 {
		t.Errorf("average composition %.2f/%.2f/%.2f, want ~0.45/0.05/0.50", unm/n, zero/n, dup/n)
	}
}

func TestProfileByName(t *testing.T) {
	if ProfileByName("moses") == nil {
		t.Fatal("moses not found")
	}
	if ProfileByName("nope") != nil {
		t.Fatal("phantom profile")
	}
}

func smallProfile() Profile {
	p := *ProfileByName("img_dnn")
	p.PagesPerVM = 120
	return p
}

func TestBuildImageComposition(t *testing.T) {
	p := smallProfile()
	img, err := BuildImage(p, 4, 4*120*2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.VMs) != 4 {
		t.Fatalf("%d VMs", len(img.VMs))
	}
	wantDup := int(p.DupFrac*120) * 4
	wantZero := int(p.ZeroFrac*120) * 4
	if len(img.DupPages) != wantDup {
		t.Fatalf("dup pages = %d, want %d", len(img.DupPages), wantDup)
	}
	if len(img.ZeroPages) != wantZero {
		t.Fatalf("zero pages = %d, want %d", len(img.ZeroPages), wantZero)
	}
	if len(img.Volatile) == 0 {
		t.Fatal("no volatile pages")
	}
	// All pages mergeable-advised and resident.
	f := img.MeasureFootprint()
	if f.TotalGuestPages != 4*120 {
		t.Fatalf("resident = %d, want %d", f.TotalGuestPages, 4*120)
	}
	// Nothing merged yet: allocation equals resident pages.
	if f.FramesAllocated != f.TotalGuestPages {
		t.Fatalf("pre-merge frames = %d", f.FramesAllocated)
	}
}

func TestImageDedupProducesPaperShapedSavings(t *testing.T) {
	// Run software KSM to steady state on a full 10-VM image and check the
	// Figure 7 shape: roughly half the footprint disappears, zero pages
	// collapse to one frame, duplicates compress by ~DupCopies.
	p := smallProfile()
	img, err := BuildImage(p, 10, 10*120*2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := ksm.NewScanner(ksm.NewAlgorithm(img.HV, ksm.JHasher{}), ksm.DefaultCosts())
	s.RunToSteadyState(30)
	f := img.MeasureFootprint()
	if f.ZeroFrames != 1 {
		t.Fatalf("zero frames = %d, want 1", f.ZeroFrames)
	}
	sav := f.Savings()
	if sav < 0.35 || sav > 0.60 {
		t.Fatalf("savings = %.2f, want ~0.48 (Figure 7)", sav)
	}
	if f.MergeableNonZero == 0 || f.NonZeroShared == 0 {
		t.Fatal("no non-zero duplicates merged")
	}
	compression := float64(f.NonZeroShared) / float64(f.MergeableNonZero)
	if compression > 0.25 {
		t.Fatalf("dup compression = %.2f distinct/copies, want <= ~1/DupCopies", compression)
	}
	// Unmergeable pages: unique contents must remain private.
	if f.Unmergeable == 0 {
		t.Fatal("no unmergeable pages remained")
	}
}

func TestChurnVolatileChangesContent(t *testing.T) {
	p := smallProfile()
	img, err := BuildImage(p, 2, 2*120*2, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[int][]byte)
	for i, id := range img.Volatile {
		pfn, _ := img.HV.Resolve(id)
		cp := make([]byte, len(img.HV.Phys.Page(pfn)))
		copy(cp, img.HV.Phys.Page(pfn))
		before[i] = cp
	}
	if err := img.ChurnVolatile(); err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i, id := range img.Volatile {
		pfn, _ := img.HV.Resolve(id)
		after := img.HV.Phys.Page(pfn)
		for j := range after {
			if after[j] != before[i][j] {
				changed++
				break
			}
		}
	}
	// Every volatile page receives either a full rewrite or a 256B random
	// write; virtually all must differ afterwards.
	if changed < len(img.Volatile)*9/10 {
		t.Fatalf("only %d/%d volatile pages changed", changed, len(img.Volatile))
	}
}

// TestWholePageWritesStoreNothing pins that the image's whole-page guest
// writes are seeded: SpawnVM, BurstWrite and PhaseShift on a built image
// store no page and materialize none, while each page they write reads
// back what FillPage generates from its seed.
func TestWholePageWritesStoreNothing(t *testing.T) {
	p := smallProfile()
	p.BurstPagesPerVM = 16
	img, err := BuildImage(p, 3, 4*(p.PagesPerVM+p.BurstPagesPerVM)*2, 5)
	if err != nil {
		t.Fatal(err)
	}
	phys := img.HV.Phys
	store, materialized := phys.StoreBytes(), phys.MaterializedPages()
	v, err := img.SpawnVM()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := img.BurstWrite(8, 0.5); err != nil || n != 8*len(img.VMs) {
		t.Fatalf("BurstWrite wrote %d pages (error %v), want %d", n, err, 8*len(img.VMs))
	}
	if err := img.PhaseShift(0.5); err != nil {
		t.Fatal(err)
	}
	if got, gotM := phys.StoreBytes(), phys.MaterializedPages(); got != store || gotM != materialized {
		t.Fatalf("store %d bytes and %d materialized pages after the writes, want %d and %d", got, gotM, store, materialized)
	}
	// The spawned VM's first dup page holds its content's seed.
	pfn, _ := v.Resolve(0)
	got, want := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
	phys.ReadAt(pfn, 0, got)
	mem.FillPage(want, uint64(img.spawned%img.dupDistinct)*2654435761+img.salt, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("a spawned dup page does not read its content seed's page")
	}
}

func TestBurstScheduleSharesAndSkew(t *testing.T) {
	b := &BurstSchedule{
		IntervalCycles: 10_000_000,
		MeanCycles:     6_800_000, // 68% of one core, i.e. 6.8% of ten
		StdCycles:      1_000_000,
		ZipfS:          1.5,
		Cores:          10,
	}
	total := 0.0
	for c := 0; c < 10; c++ {
		total += b.CoreShare(c)
	}
	if math.Abs(total-0.68) > 0.001 {
		t.Fatalf("total share = %g, want 0.68", total)
	}
	// Table 4: the busiest core absorbs ~a third of its cycles.
	if max := b.CoreShare(0); max < 0.25 || max > 0.45 {
		t.Fatalf("max core share = %g, want ~1/3", max)
	}
	// Sampled slices land on core 0 about half the time under ZipfS=1.5,
	// and every interval's slices sum to its busy time.
	rng := sim.NewRNG(1)
	core0, slices := 0, 0
	for k := uint64(0); k < 2000; k++ {
		bursts := b.Bursts(k, rng)
		if len(bursts) == 0 {
			t.Fatal("schedule empty")
		}
		var sum uint64
		for i, burst := range bursts {
			slices++
			if burst.Core == 0 {
				core0++
			}
			if i == 0 && burst.At != k*b.IntervalCycles {
				t.Fatal("burst timing wrong")
			}
			if burst.Cycles > 1_000_000 {
				t.Fatalf("slice %d cycles exceeds the timeslice", burst.Cycles)
			}
			sum += burst.Cycles
		}
		if sum == 0 {
			t.Fatal("interval with zero busy time")
		}
	}
	frac := float64(core0) / float64(slices)
	if frac < 0.4 {
		t.Fatalf("core 0 received %.2f of slices", frac)
	}
}

func TestNoBurstsSchedule(t *testing.T) {
	if bs := NoBursts().Bursts(0, sim.NewRNG(1)); len(bs) != 0 {
		t.Fatal("NoBursts produced a burst")
	}
	if NoBursts().CoreShare(0) != 0 {
		t.Fatal("NoBursts has core share")
	}
}

func TestQueueingBaselineSanity(t *testing.T) {
	p := *ProfileByName("silo")
	res := SimulateQueueing(p, 4, 1.0, NoBursts(), 2*sim.CyclesPerSecond, 7)
	if res.Queries < 1000 {
		t.Fatalf("only %d queries measured", res.Queries)
	}
	// Open-loop M/G/1 at utilization ~0.44: mean sojourn must exceed the
	// mean service time but stay within a small multiple of it.
	if res.Mean < p.MeanServiceCycles {
		t.Fatalf("mean sojourn %.0f below service time %.0f", res.Mean, p.MeanServiceCycles)
	}
	if res.Mean > 6*p.MeanServiceCycles {
		t.Fatalf("mean sojourn %.0f implausibly high for stable queue", res.Mean)
	}
	if res.P95 <= res.Mean {
		t.Fatal("P95 <= mean")
	}
}

func TestQueueingBurstsInflateLatency(t *testing.T) {
	p := *ProfileByName("silo")
	base := SimulateQueueing(p, 10, 1.0, NoBursts(), 2*sim.CyclesPerSecond, 7)
	ksmSched := &BurstSchedule{
		IntervalCycles: 10_000_000,
		MeanCycles:     6_000_000,
		StdCycles:      1_500_000,
		ZipfS:          1.5,
		Cores:          10,
	}
	loaded := SimulateQueueing(p, 10, 1.05, ksmSched, 2*sim.CyclesPerSecond, 7)
	if loaded.Mean <= base.Mean {
		t.Fatal("bursts did not inflate mean latency")
	}
	if loaded.P95 <= base.P95 {
		t.Fatal("bursts did not inflate tail latency")
	}
	// Tail inflation tracks mean inflation (under the capacity-sharing
	// model both rise together; the tail must not lag far behind).
	meanRatio := loaded.Mean / base.Mean
	tailRatio := loaded.P95 / base.P95
	if tailRatio < 1.15 || tailRatio < 0.6*meanRatio {
		t.Fatalf("tail ratio %.2f too low vs mean ratio %.2f", tailRatio, meanRatio)
	}
}

func TestQueueingDilationScalesService(t *testing.T) {
	p := *ProfileByName("masstree")
	base := SimulateQueueing(p, 2, 1.0, NoBursts(), sim.CyclesPerSecond, 3)
	dilated := SimulateQueueing(p, 2, 1.2, NoBursts(), sim.CyclesPerSecond, 3)
	ratio := dilated.Mean / base.Mean
	if ratio < 1.15 {
		t.Fatalf("dilation 1.2 produced mean ratio %.2f", ratio)
	}
}

func TestQueueingDeterministic(t *testing.T) {
	p := *ProfileByName("img_dnn")
	a := SimulateQueueing(p, 3, 1.0, NoBursts(), sim.CyclesPerSecond, 11)
	b := SimulateQueueing(p, 3, 1.0, NoBursts(), sim.CyclesPerSecond, 11)
	if a.Mean != b.Mean || a.P95 != b.P95 || a.Queries != b.Queries {
		t.Fatal("same seed produced different results")
	}
}

func TestMeasureCyclesFor(t *testing.T) {
	sphinx := *ProfileByName("sphinx")
	got := MeasureCyclesFor(sphinx, 300)
	if got != 120*sim.CyclesPerSecond {
		t.Fatalf("sphinx horizon = %d, want capped at 120s", got)
	}
	silo := *ProfileByName("silo")
	if MeasureCyclesFor(silo, 300) != sim.CyclesPerSecond {
		t.Fatal("fast app should use the 1s floor")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("geomean(1,100) = %g", g)
	}
	if geomean(nil) != 0 {
		t.Fatal("geomean(nil) != 0")
	}
	if geomean([]float64{5, 0}) != 0 {
		t.Fatal("geomean with zero must degrade to 0, not NaN")
	}
}

// Guard the scaled-down image against accidental unbounded memory use.
func TestImageMemoryBudget(t *testing.T) {
	p := smallProfile()
	img, err := BuildImage(p, 10, 10*120*2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if img.HV.Phys.AllocatedFrames() > 10*120 {
		t.Fatalf("image allocated %d frames for %d guest pages",
			img.HV.Phys.AllocatedFrames(), 10*120)
	}
}
