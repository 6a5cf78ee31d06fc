package tailbench

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// buildImageRef is the sequential reference image builder: every page is
// created through VM.Write (or Touch for zero pages) from a staging buffer,
// one page at a time, in the dup/zero/unique order. BuildImage must produce
// exactly the machine this one does.
func buildImageRef(p Profile, numVMs int, physFrames int, seed uint64) (*Image, error) {
	img := &Image{Profile: p, HV: vm.NewHypervisor(uint64(physFrames) * mem.PageSize), rng: sim.NewRNG(seed)}

	dupPerVM := int(p.DupFrac * float64(p.PagesPerVM))
	zeroPerVM := int(p.ZeroFrac * float64(p.PagesPerVM))
	uniqPerVM := p.PagesPerVM - dupPerVM - zeroPerVM

	distinct := int(float64(dupPerVM*numVMs)/p.DupCopies + 0.5)
	if distinct < 1 {
		distinct = 1
	}
	for i := 0; i < numVMs; i++ {
		v := img.HV.NewVM(uint64(p.PagesPerVM+p.BurstPagesPerVM) * mem.PageSize)
		v.Madvise(0, p.PagesPerVM+p.BurstPagesPerVM, true)
		img.VMs = append(img.VMs, v)
	}
	img.burstRNG = sim.NewRNG(seed ^ 0xB0057_F00D)

	page := make([]byte, mem.PageSize)
	salt := (seed + 1) * 0x9E3779B97F4A7C15
	img.salt, img.dupDistinct = salt, distinct
	for slot := 0; slot < dupPerVM; slot++ {
		for i, v := range img.VMs {
			group := (slot*numVMs + i) / max(1, int(p.DupCopies+0.5))
			contentID := group % max(1, distinct)
			mem.FillPage(page, uint64(contentID)*2654435761+salt, 0)
			if _, err := v.Write(vm.GFN(slot), 0, page); err != nil {
				return nil, fmt.Errorf("tailbench: dup page: %w", err)
			}
			img.DupPages = append(img.DupPages, v.PageID(vm.GFN(slot)))
		}
	}
	for z := 0; z < zeroPerVM; z++ {
		g := vm.GFN(dupPerVM + z)
		for _, v := range img.VMs {
			if err := v.Touch(g); err != nil {
				return nil, fmt.Errorf("tailbench: zero page: %w", err)
			}
			img.ZeroPages = append(img.ZeroPages, v.PageID(g))
		}
	}
	next := salt ^ 0xF00D
	for u := 0; u < uniqPerVM; u++ {
		g := vm.GFN(dupPerVM + zeroPerVM + u)
		for _, v := range img.VMs {
			next++
			mem.FillPage(page, next*0x9E3779B97F4A7C15+7, 0)
			if _, err := v.Write(g, 0, page); err != nil {
				return nil, fmt.Errorf("tailbench: unique page: %w", err)
			}
			id := v.PageID(g)
			img.UniquePages = append(img.UniquePages, id)
			if float64(u) < p.VolatileFrac*float64(uniqPerVM) {
				img.Volatile = append(img.Volatile, id)
			}
		}
	}
	return img, nil
}

// imageFacts is everything a built image's later behaviour can depend on:
// arena bytes and frame metadata, every frame's reverse map, the page
// lists, the allocation counters, every VM's present-page count and the
// image's own checkpointed state.
type imageFacts struct {
	Phys         mem.PhysState
	MapperCounts []int
	Mappers      [][]vm.PageID
	DupPages     []vm.PageID
	ZeroPages    []vm.PageID
	UniquePages  []vm.PageID
	Volatile     []vm.PageID
	Allocs       uint64
	ZeroFills    uint64
	PeakFrames   int
	PresentPages []int
	Image        ImageState
	Salt         uint64
	DupDistinct  int
}

func factsOf(t *testing.T, img *Image) imageFacts {
	t.Helper()
	st, err := img.HV.Phys.State()
	if err != nil {
		t.Fatal(err)
	}
	f := imageFacts{
		Phys:        st,
		DupPages:    img.DupPages,
		ZeroPages:   img.ZeroPages,
		UniquePages: img.UniquePages,
		Volatile:    img.Volatile,
		Allocs:      img.HV.Phys.Allocs,
		ZeroFills:   img.HV.Phys.ZeroFills,
		PeakFrames:  img.HV.Phys.PeakFrames(),
		Image:       img.State(),
		Salt:        img.salt,
		DupDistinct: img.dupDistinct,
	}
	for pfn := mem.PFN(0); int(pfn) < img.HV.Phys.TotalFrames(); pfn++ {
		f.MapperCounts = append(f.MapperCounts, img.HV.MapperCount(pfn))
		f.Mappers = append(f.Mappers, img.HV.Mappers(pfn))
	}
	for _, v := range img.VMs {
		n := 0
		for g := 0; g < v.Pages(); g++ {
			if v.Present(vm.GFN(g)) {
				n++
			}
		}
		f.PresentPages = append(f.PresentPages, n)
	}
	return f
}

// requireSameFacts fails naming the first field in which got differs.
func requireSameFacts(t *testing.T, want, got imageFacts) {
	t.Helper()
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Fatalf("%s differs from the sequential reference", wv.Type().Field(i).Name)
		}
	}
}

// readConcurrently makes the first reads of img's memory the way a sharded
// scan pass does: inside a deferred-free window, workers goroutines each
// read every workers-th allocated frame into a buffer of their own, from
// its seed when it is seeded, and compare it with the same frame of ref.
// It reports the first frame whose bytes differ, or -1.
func readConcurrently(img, ref *Image, workers int) int {
	phys := img.HV.Phys
	same := make([]bool, phys.TotalFrames())
	phys.BeginDeferredFrees()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, mem.PageSize)
			for pfn := mem.PFN(w); int(pfn) < len(same); pfn += mem.PFN(workers) {
				if same[pfn] = !phys.Allocated(pfn); !same[pfn] {
					phys.ReadAt(pfn, 0, buf)
					same[pfn] = bytes.Equal(buf, ref.HV.Phys.Page(pfn))
				}
			}
		}()
	}
	wg.Wait()
	phys.EndDeferredFrees()
	return slices.Index(same, false)
}

// TestBuildImageMatchesSequentialReference pins the seeded image builder
// against the page-at-a-time reference, for every profile, several seeds,
// VM counts whose dup groups straddle chunk boundaries, and 1..4 workers
// that make the fresh image's first reads concurrently (readConcurrently).
// At every worker count the workers must read the reference's bytes, which
// under -race also proves that no seeded read writes shared state. The build
// itself is sequential and deterministic, so the image's facts (the
// captured State, every page's bytes included) are compared with the
// reference's once per shape, at one worker.
func TestBuildImageMatchesSequentialReference(t *testing.T) {
	for _, p := range Profiles() {
		p.PagesPerVM = 40
		for _, seed := range []uint64{1, 2, 7919} {
			for numVMs := 1; numVMs <= 11; numVMs++ {
				frames := numVMs*p.PagesPerVM + 64
				ref, err := buildImageRef(p, numVMs, frames, seed)
				if err != nil {
					t.Fatal(err)
				}
				want := factsOf(t, ref)
				for workers := 1; workers <= 4; workers++ {
					t.Run(fmt.Sprintf("%s/seed%d/vms%d/w%d", p.Name, seed, numVMs, workers), func(t *testing.T) {
						img, err := BuildImage(p, numVMs, frames, seed)
						if err != nil {
							t.Fatal(err)
						}
						if pfn := readConcurrently(img, ref, workers); pfn >= 0 {
							t.Fatalf("frame %d: concurrent first read differs from the sequential reference", pfn)
						}
						if workers == 1 {
							requireSameFacts(t, want, factsOf(t, img))
						}
					})
				}
			}
		}
	}
}

// TestBuildImageExhaustionMatchesReference checks that an arena too small
// for the image fails the build with the reference builder's error.
func TestBuildImageExhaustionMatchesReference(t *testing.T) {
	p := smallProfile()
	for _, frames := range []int{10, 3 * 120, 4*120 - 1} {
		_, want := buildImageRef(p, 4, frames, 5)
		_, got := BuildImage(p, 4, frames, 5)
		if want == nil || got == nil || want.Error() != got.Error() {
			t.Fatalf("%d frames: error %v, want %v", frames, got, want)
		}
	}
}
