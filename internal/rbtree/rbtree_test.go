package rbtree

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

// fixture builds a physical memory where frame contents are derived from a
// small integer "content id", so ordering is predictable: page bytes are
// all equal to the id. Distinct ids give distinct contents ordered by id.
type fixture struct {
	phys *mem.Phys
	t    *Tree
}

func newFixture(frames int) *fixture {
	p := mem.New(uint64(frames) * mem.PageSize)
	f := &fixture{phys: p}
	f.t = New(func(a, b mem.PFN) (int, int) { return p.ComparePage(a, b) })
	return f
}

// page allocates a frame filled with byte value id.
func (f *fixture) page(id byte) mem.PFN {
	pfn, err := f.phys.Alloc()
	if err != nil {
		panic(err)
	}
	f.phys.WriteAt(pfn, 0, bytes.Repeat([]byte{id}, mem.PageSize))
	return pfn
}

func TestInsertLookup(t *testing.T) {
	f := newFixture(16)
	ids := []byte{5, 3, 8, 1, 4, 7, 9, 2, 6}
	for _, id := range ids {
		if _, inserted := f.t.InsertOrGet(f.page(id), nil); !inserted {
			t.Fatalf("id %d reported duplicate", id)
		}
	}
	if f.t.Size() != len(ids) {
		t.Fatalf("size = %d, want %d", f.t.Size(), len(ids))
	}
	if err := f.t.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Lookup with a fresh page of identical content must find a node.
	probe := f.page(7)
	n := f.t.Lookup(probe)
	if n == nil {
		t.Fatal("content-equal page not found")
	}
	if c, _ := f.phys.ComparePage(n.PFN, probe); c != 0 {
		t.Fatal("Lookup returned node with different content")
	}
	// Absent content.
	if f.t.Lookup(f.page(100)) != nil {
		t.Fatal("absent content found")
	}
}

func TestInsertOrGetFindsDuplicate(t *testing.T) {
	f := newFixture(8)
	first, _ := f.t.InsertOrGet(f.page(42), "first")
	dup := f.page(42)
	got, inserted := f.t.InsertOrGet(dup, "second")
	if inserted {
		t.Fatal("duplicate content inserted as new node")
	}
	if got != first || got.Item != "first" {
		t.Fatal("duplicate did not return the existing node")
	}
	if f.t.Size() != 1 {
		t.Fatalf("size = %d, want 1", f.t.Size())
	}
}

func TestInOrderIsSorted(t *testing.T) {
	f := newFixture(32)
	r := sim.NewRNG(1)
	for _, i := range r.Perm(20) {
		f.t.InsertOrGet(f.page(byte(i*10)), nil)
	}
	var last byte
	started := false
	f.t.InOrder(func(n *Node) bool {
		b := f.phys.Page(n.PFN)[0]
		if started && b <= last {
			t.Fatalf("in-order not sorted: %d after %d", b, last)
		}
		last, started = b, true
		return true
	})
}

func TestDeleteMaintainsInvariants(t *testing.T) {
	f := newFixture(64)
	nodes := map[byte]*Node{}
	r := sim.NewRNG(2)
	for _, i := range r.Perm(40) {
		id := byte(i)
		n, _ := f.t.InsertOrGet(f.page(id), nil)
		nodes[id] = n
	}
	order := r.Perm(40)
	for k, i := range order {
		f.t.Delete(nodes[byte(i)])
		if err := f.t.CheckInvariants(); err != nil {
			t.Fatalf("after %d deletions: %v", k+1, err)
		}
	}
	if f.t.Size() != 0 || f.t.Root() != nil {
		t.Fatal("tree not empty after deleting everything")
	}
}

func TestDeleteRootRepeatedly(t *testing.T) {
	f := newFixture(32)
	for i := 0; i < 15; i++ {
		f.t.InsertOrGet(f.page(byte(i)), nil)
	}
	for f.t.Root() != nil {
		f.t.Delete(f.t.Root())
		if err := f.t.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestResetEmptiesTree(t *testing.T) {
	f := newFixture(8)
	f.t.InsertOrGet(f.page(1), nil)
	f.t.InsertOrGet(f.page(2), nil)
	f.t.Reset()
	if f.t.Size() != 0 || f.t.Root() != nil {
		t.Fatal("Reset left residue")
	}
}

// TestResetRecyclesNodes runs rounds of Insert/InsertOrGet with a few
// Deletes, then Reset. After each Reset every node the tree held sits
// zeroed on the free list and no deleted node does; the next round's
// inserts reuse those nodes before allocating, and the rebuilt tree keeps
// every red-black invariant with no link or payload left from the round
// before.
func TestResetRecyclesNodes(t *testing.T) {
	f := newFixture(64)
	pages := make([]mem.PFN, 60)
	for i := range pages {
		pages[i] = f.page(byte(i))
	}
	r := sim.NewRNG(7)
	retired := map[*Node]bool{}
	for round := 0; round < 20; round++ {
		live := map[*Node]bool{}
		deleted := map[*Node]bool{}
		inserts := 0
		for op := 0; op < 80; op++ {
			pfn := pages[r.Intn(len(pages))]
			var n *Node
			if r.Bool(0.5) {
				n = f.t.Insert(pfn, round)
			} else if got, inserted := f.t.InsertOrGet(pfn, round); inserted {
				n = got
			}
			if n == nil {
				continue
			}
			if n.Item != round || n.Owner() != f.t || n.PFN != pfn {
				t.Fatalf("round %d: inserted node carries %+v", round, *n)
			}
			if inserts < len(retired) && !retired[n] {
				t.Fatalf("round %d: insert allocated while the free list held nodes", round)
			}
			inserts++
			live[n] = true
			if r.Bool(0.1) {
				f.t.Delete(n)
				delete(live, n)
				deleted[n] = true
			}
			if err := f.t.CheckInvariants(); err != nil {
				t.Fatalf("round %d op %d: %v", round, op, err)
			}
		}
		if f.t.Size() != len(live) {
			t.Fatalf("round %d: size %d, want %d", round, f.t.Size(), len(live))
		}
		freeBefore := len(f.t.free)
		f.t.Reset()
		if f.t.Size() != 0 || f.t.Root() != nil {
			t.Fatalf("round %d: Reset left residue", round)
		}
		if got, want := len(f.t.free), freeBefore+len(live); got != want {
			t.Fatalf("round %d: free list holds %d nodes, want %d", round, got, want)
		}
		retired = map[*Node]bool{}
		for _, n := range f.t.free {
			if *n != (Node{}) {
				t.Fatalf("round %d: recycled node not zeroed: %+v", round, *n)
			}
			if deleted[n] {
				t.Fatalf("round %d: a deleted node was recycled", round)
			}
			retired[n] = true
		}
		for n := range live {
			if !retired[n] {
				t.Fatalf("round %d: node %d missing from the free list", round, n.PFN)
			}
		}
	}
}

func TestComparisonAccounting(t *testing.T) {
	f := newFixture(8)
	f.t.InsertOrGet(f.page(1), nil)
	before := f.t.Comparisons
	f.t.InsertOrGet(f.page(2), nil) // one comparison against the root
	if f.t.Comparisons != before+1 {
		t.Fatalf("comparisons = %d, want %d", f.t.Comparisons, before+1)
	}
	if f.t.BytesCompared == 0 {
		t.Fatal("bytes compared not accounted")
	}
	// Pages differing in byte 0 diverge after 1 byte.
	if f.t.BytesCompared != 1 {
		t.Fatalf("bytes = %d, want 1 (diverge at first byte)", f.t.BytesCompared)
	}
}

func TestRandomOpsInvariantsQuick(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := sim.NewRNG(seed)
		f := newFixture(256)
		live := map[byte]*Node{}
		for op := 0; op < 120; op++ {
			id := byte(r.Intn(60))
			if n, ok := live[id]; ok && r.Bool(0.4) {
				f.t.Delete(n)
				delete(live, id)
			} else if !ok {
				n, inserted := f.t.InsertOrGet(f.page(id), nil)
				if !inserted {
					return false // no duplicate should exist
				}
				live[id] = n
			}
			if f.t.CheckInvariants() != nil {
				return false
			}
		}
		return f.t.Size() == len(live)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNilComparatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(nil)
}

func TestDeleteNilPanics(t *testing.T) {
	f := newFixture(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Delete(nil) did not panic")
		}
	}()
	f.t.Delete(nil)
}

func TestInsertAllowsDuplicates(t *testing.T) {
	f := newFixture(8)
	f.t.Insert(f.page(9), nil)
	f.t.Insert(f.page(9), nil)
	if f.t.Size() != 2 {
		t.Fatalf("size = %d, want 2 (Insert permits duplicates)", f.t.Size())
	}
	if err := f.t.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
