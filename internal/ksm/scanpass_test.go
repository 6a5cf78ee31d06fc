package ksm

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rbtree"
	"repro/internal/tailbench"
)

// passState is a full-fidelity snapshot of everything a scan pass can
// affect: merge state, statistics, cost accounting, frame-allocator state,
// tree contents, and the page→frame mapping with content digests. Two runs
// are bit-identical iff their passStates are DeepEqual after every pass.
type passState struct {
	Merges       uint64
	Stats        Stats
	Cycles       CycleBreakdown
	BytesTouched uint64
	DRAMBytes    uint64

	Allocs, Frees, ZeroFills uint64
	Allocated, Peak, Free    int

	StableOrder   []mem.PFN
	UnstableOrder []mem.PFN
	Mapping       []mem.PFN
	Keys          []uint64
}

func snapshot(s *Scanner) passState {
	a := s.Alg
	p := a.HV.Phys
	st := passState{
		Merges:       a.HV.Merges,
		Stats:        a.Stats,
		Cycles:       s.Cycles,
		BytesTouched: s.BytesTouched,
		DRAMBytes:    s.DRAMBytes,
		Allocs:       p.Allocs,
		Frees:        p.Frees,
		ZeroFills:    p.ZeroFills,
		Allocated:    p.AllocatedFrames(),
		Peak:         p.PeakFrames(),
		Free:         p.FreeFrames(),
	}
	a.Stable.InOrder(func(n *rbtree.Node) bool {
		st.StableOrder = append(st.StableOrder, n.PFN)
		return true
	})
	a.Unstable.InOrder(func(n *rbtree.Node) bool {
		st.UnstableOrder = append(st.UnstableOrder, n.PFN)
		return true
	})
	for _, id := range a.OrderSnapshot() {
		pfn, ok := a.HV.Resolve(id)
		if !ok {
			st.Mapping = append(st.Mapping, ^mem.PFN(0))
			st.Keys = append(st.Keys, 0)
			continue
		}
		st.Mapping = append(st.Mapping, pfn)
		st.Keys = append(st.Keys, p.ContentKey(pfn))
	}
	return st
}

func buildDupWorld(t *testing.T, shardBits int) *Scanner {
	t.Helper()
	prof := tailbench.Profile{
		Name:       "scanpass",
		PagesPerVM: 96,
		DupFrac:    0.5,
		DupCopies:  4,
		ZeroFrac:   0.1,
	}
	img, err := tailbench.BuildImage(prof, 6, 6*prof.PagesPerVM*2, 99)
	if err != nil {
		t.Fatal(err)
	}
	return NewScanner(NewAlgorithmSharded(img.HV, JHasher{}, shardBits), DefaultCosts())
}

// churn applies a deterministic write schedule between passes: CoW breaks
// on previously merged duplicate pages plus fresh content on some unique
// pages, exercising unmerge, re-route, and the deferred-free machinery the
// same way in every world.
func churn(t *testing.T, s *Scanner, pass int) {
	t.Helper()
	a := s.Alg
	order := a.OrderSnapshot()
	buf := make([]byte, 16)
	for i := pass; i < len(order); i += 17 {
		id := order[i]
		for j := range buf {
			buf[j] = byte(i*31 + j + pass)
		}
		v := a.HV.VM(int(id.VM))
		if _, err := v.Write(id.GFN, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanPassBitIdenticalToSequential is the tentpole's core contract:
// a full pass through ScanPass at any worker count produces state
// bit-identical to ScanPass(1) and to the classic sequential ScanOne loop,
// pass after pass, with churn in between. Run with -race to also prove the
// fan-out is data-race-free.
func TestScanPassBitIdenticalToSequential(t *testing.T) {
	const shardBits = 3 // 8 shards
	seq := buildDupWorld(t, shardBits)
	one := buildDupWorld(t, shardBits)
	par := buildDupWorld(t, shardBits)

	runSeq := func(s *Scanner) {
		for {
			_, ended, ok := s.ScanOne()
			if !ok || ended {
				return
			}
		}
	}

	for pass := 0; pass < 4; pass++ {
		runSeq(seq)
		one.ScanPass(1)
		par.ScanPass(4)

		ss, so, sp := snapshot(seq), snapshot(one), snapshot(par)
		if !reflect.DeepEqual(ss, so) {
			t.Fatalf("pass %d: ScanPass(1) diverged from sequential ScanOne\nseq: %+v\none: %+v", pass, ss, so)
		}
		if !reflect.DeepEqual(ss, sp) {
			t.Fatalf("pass %d: ScanPass(4) diverged from sequential ScanOne\nseq: %+v\npar: %+v", pass, ss, sp)
		}
		if sp.DRAMBytes > sp.BytesTouched {
			t.Fatalf("pass %d: DRAMBytes %d > BytesTouched %d", pass, sp.DRAMBytes, sp.BytesTouched)
		}
		if pass == 3 {
			break
		}
		churn(t, seq, pass)
		churn(t, one, pass)
		churn(t, par, pass)
	}
	if seq.Alg.HV.Merges == 0 {
		t.Fatal("world produced no merges — test exercised nothing")
	}
	if snapshot(seq).Stats.FailedMerges == 0 && seq.Alg.Stats.StablePruned == 0 {
		// Not fatal: just make sure churn actually unmerged something.
		if seq.Alg.Stats.HashMismatches == 0 {
			t.Fatal("churn produced no content changes — schedule is dead")
		}
	}
}

// TestScanPassFirstReadsSharded runs sharded passes as the first two
// passes over a freshly built image, whose nonzero pages are all seeded
// (the first only hashes; the second merges), and requires the state
// ScanPass(1) reaches, with no page materialized: the passes answer every
// compare and hash from the seeds. Under -race it fails if a worker's
// seeded read writes shared state.
func TestScanPassFirstReadsSharded(t *testing.T) {
	one := buildDupWorld(t, 3)
	par := buildDupWorld(t, 3)
	phys := par.Alg.HV.Phys
	if n := phys.StoreBytes(); n != 0 {
		t.Fatalf("the image stores %d bytes before the first pass; the test would read no seeded page", n)
	}
	for pass := 0; pass < 2; pass++ {
		one.ScanPass(1)
		par.ScanPass(2)
	}
	if so, sp := snapshot(one), snapshot(par); !reflect.DeepEqual(so, sp) {
		t.Fatalf("first two ScanPass(2) diverged from ScanPass(1)\none: %+v\npar: %+v", so, sp)
	}
	if par.Alg.HV.Merges == 0 {
		t.Fatal("first two passes merged nothing — test exercised nothing")
	}
	if n, b := phys.MaterializedPages(), phys.StoreBytes(); n != 0 || b != 0 {
		t.Fatalf("first two passes materialized %d pages and stores %d bytes, want none", n, b)
	}
}

// TestScanPassSingleShardDefault checks the degenerate configuration the
// platform uses by default (shardBits 0): ScanPass still works and matches
// the sequential loop exactly.
func TestScanPassSingleShardDefault(t *testing.T) {
	seq := buildDupWorld(t, 0)
	par := buildDupWorld(t, 0)
	for pass := 0; pass < 3; pass++ {
		for {
			_, ended, ok := seq.ScanOne()
			if !ok || ended {
				break
			}
		}
		par.ScanPass(8) // clamped to the single shard
		if ss, sp := snapshot(seq), snapshot(par); !reflect.DeepEqual(ss, sp) {
			t.Fatalf("pass %d: single-shard ScanPass diverged\nseq: %+v\npar: %+v", pass, ss, sp)
		}
	}
}

// TestScanPassZeroAlloc pins the zero-garbage contract of a steady-state
// pass: once two warm-up passes have sized the shard queues, the
// accumulators and the unstable trees' node free lists, a pass with no
// churn allocates nothing, inline (one worker) or with a goroutine fan-out,
// with or without the provenance ledger attached. The ledger-on case must
// also scan the same candidates and reach the same merges as ledger-off,
// and record events: a ledger that saw nothing pinned nothing.
// AllocsPerRun measures at GOMAXPROCS 1. With more Ps the runtime may
// allocate a goroutine descriptor per fan-out until its per-P free lists
// have filled (tens of passes); those descriptors are reused, not garbage.
func TestScanPassZeroAlloc(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var offCandidates int
		var offMerges uint64
		for _, withLedger := range []bool{false, true} {
			s := buildDupWorld(t, 3)
			if withLedger {
				s.Ledger = obs.NewLedger(0)
			}
			candidates := s.ScanPass(workers).Scanned + s.ScanPass(workers).Scanned
			cmps := s.Alg.Unstable.Comparisons()
			if allocs := testing.AllocsPerRun(10, func() { candidates += s.ScanPass(workers).Scanned }); allocs != 0 {
				t.Errorf("workers %d, ledger %v: steady-state ScanPass made %v allocations, want 0", workers, withLedger, allocs)
			}
			if s.Alg.Unstable.Comparisons() == cmps {
				t.Fatalf("workers %d, ledger %v: measured passes built no unstable tree — test exercised nothing", workers, withLedger)
			}
			if !withLedger {
				offCandidates, offMerges = candidates, s.Alg.HV.Merges
				continue
			}
			if candidates != offCandidates || s.Alg.HV.Merges != offMerges {
				t.Errorf("workers %d: ledger perturbed the scan: candidates %d, merges %d; ledger off %d, %d",
					workers, candidates, s.Alg.HV.Merges, offCandidates, offMerges)
			}
			if s.Ledger.Len() == 0 {
				t.Errorf("workers %d: ledger recorded no events", workers)
			}
		}
	}
}

// TestPrepareItemsZeroAlloc: once every VM of the scan order has its slab,
// preparing the items for a parallel pass allocates nothing.
func TestPrepareItemsZeroAlloc(t *testing.T) {
	s := buildDupWorld(t, 3)
	s.ScanPass(2)
	if allocs := testing.AllocsPerRun(100, s.Alg.PrepareItems); allocs != 0 {
		t.Fatalf("PrepareItems on a warm algorithm made %v allocations, want 0", allocs)
	}
}
