package rbtree

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// shardedFixture routes the id-valued pages of fixture by their top content
// bit: pages with id < 128 land in shard 0, the rest in shard 1. That is a
// content-prefix route, so it respects memcmp order.
type shardedFixture struct {
	phys *mem.Phys
	s    *Sharded
}

func newShardedFixture(frames, shards int) *shardedFixture {
	p := mem.New(uint64(frames) * mem.PageSize)
	f := &shardedFixture{phys: p}
	f.s = NewSharded(shards,
		func(pfn mem.PFN) int { return int(p.Page(pfn)[0]) * shards / 256 },
		func(int) *Tree {
			return New(func(a, b mem.PFN) (int, int) { return p.ComparePage(a, b) })
		})
	return f
}

func (f *shardedFixture) page(id byte) mem.PFN {
	pfn, err := f.phys.Alloc()
	if err != nil {
		panic(err)
	}
	f.phys.WriteAt(pfn, 0, bytes.Repeat([]byte{id}, mem.PageSize))
	return pfn
}

func TestShardedRoutingAndOrder(t *testing.T) {
	f := newShardedFixture(64, 4)
	r := sim.NewRNG(11)
	ids := r.Perm(40)
	for _, id := range ids {
		f.s.Insert(f.page(byte(id*6)), nil)
	}
	if f.s.Size() != len(ids) {
		t.Fatalf("size = %d, want %d", f.s.Size(), len(ids))
	}
	if err := f.s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every shard actually holds something (ids span 0..234).
	for i := 0; i < f.s.NumShards(); i++ {
		if f.s.Shard(i).Size() == 0 {
			t.Fatalf("shard %d empty — routing collapsed", i)
		}
	}
	// InOrder across shards is global content order.
	var prev mem.PFN
	first := true
	f.s.InOrder(func(n *Node) bool {
		if !first {
			if c, _ := f.phys.ComparePage(prev, n.PFN); c >= 0 {
				t.Fatalf("InOrder not globally sorted at pfn %d", n.PFN)
			}
		}
		prev, first = n.PFN, false
		return true
	})
	// Lookup of a content-equal probe lands in the right shard.
	probe := f.page(byte(ids[3] * 6))
	n := f.s.Lookup(probe)
	if n == nil || n.Owner() != f.s.For(probe) {
		t.Fatal("Lookup missed or returned a node from the wrong shard")
	}
}

// TestShardedDeleteByOwner pins the owner-dispatch rule: a node whose page
// content mutated after insertion (unstable pages are not write-protected)
// now routes to a different shard, but Delete must still remove it from the
// shard that holds it.
func TestShardedDeleteByOwner(t *testing.T) {
	f := newShardedFixture(16, 2)
	low := f.page(10) // routes to shard 0
	n := f.s.Insert(low, nil)
	if n.Owner() != f.s.Shard(0) {
		t.Fatal("low page not inserted into shard 0")
	}
	// Mutate content so the route flips to shard 1.
	f.phys.WriteAt(low, 0, bytes.Repeat([]byte{200}, mem.PageSize))
	if f.s.ShardIndex(low) != 1 {
		t.Fatal("mutated page should route to shard 1")
	}
	f.s.Delete(n)
	if n.Owner() != nil {
		t.Fatal("owner not cleared on delete")
	}
	if f.s.Size() != 0 {
		t.Fatalf("size = %d after delete, want 0", f.s.Size())
	}
	if err := f.s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedDeletePanicsOnUnowned(t *testing.T) {
	f := newShardedFixture(8, 2)
	n := f.s.Insert(f.page(1), nil)
	f.s.Delete(n)
	defer func() {
		if recover() == nil {
			t.Fatal("double Delete of an unowned node did not panic")
		}
	}()
	f.s.Delete(n)
}

// TestShardedSingleShardMatchesPlainTree checks the degenerate case: one
// shard must produce the same shapes and the same comparison/byte counters
// as a plain tree fed the same operations.
func TestShardedSingleShardMatchesPlainTree(t *testing.T) {
	p := mem.New(64 * mem.PageSize)
	mkPage := func(id byte) mem.PFN {
		pfn, _ := p.Alloc()
		p.WriteAt(pfn, 0, bytes.Repeat([]byte{id}, mem.PageSize))
		return pfn
	}
	plain := New(func(a, b mem.PFN) (int, int) { return p.ComparePage(a, b) })
	sh := NewSharded(1,
		func(mem.PFN) int { panic("route must not be consulted with one shard") },
		func(int) *Tree {
			return New(func(a, b mem.PFN) (int, int) { return p.ComparePage(a, b) })
		})
	r := sim.NewRNG(5)
	for _, id := range r.Perm(20) {
		a, b := mkPage(byte(id*12)), mkPage(byte(id*12))
		plain.InsertOrGet(a, nil)
		sh.InsertOrGet(b, nil)
	}
	if plain.Size() != sh.Size() {
		t.Fatalf("size mismatch: plain %d, sharded %d", plain.Size(), sh.Size())
	}
	if plain.Comparisons != sh.Comparisons() || plain.BytesCompared != sh.BytesCompared() {
		t.Fatalf("counter mismatch: plain (%d,%d), sharded (%d,%d)",
			plain.Comparisons, plain.BytesCompared, sh.Comparisons(), sh.BytesCompared())
	}
}

// TestShardedCrossShardViolationDetected ensures CheckInvariants catches a
// route that breaks content-prefix ordering.
func TestShardedCrossShardViolationDetected(t *testing.T) {
	p := mem.New(8 * mem.PageSize)
	mkPage := func(id byte) mem.PFN {
		pfn, _ := p.Alloc()
		p.WriteAt(pfn, 0, bytes.Repeat([]byte{id}, mem.PageSize))
		return pfn
	}
	// Inverted route: big contents to shard 0, small to shard 1.
	s := NewSharded(2,
		func(pfn mem.PFN) int {
			if p.Page(pfn)[0] >= 128 {
				return 0
			}
			return 1
		},
		func(int) *Tree {
			return New(func(a, b mem.PFN) (int, int) { return p.ComparePage(a, b) })
		})
	s.Insert(mkPage(200), nil)
	s.Insert(mkPage(10), nil)
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("cross-shard order violation not detected")
	}
}
