package rbtree

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestPropertyInvariants10k hammers the tree with 10,000 random
// insert/delete operations and re-validates the full red-black contract —
// root blackness, no red-red edges, equal black heights, BST content
// order, parent links, and size accounting — after every mutation.
// Frames are released as nodes leave the tree so the walk runs in bounded
// memory, mirroring how KSM recycles candidate frames across passes.
func TestPropertyInvariants10k(t *testing.T) {
	const (
		ops      = 10_000
		universe = 512 // distinct page contents in play
	)
	phys := mem.New(uint64(universe+64) * mem.PageSize)
	tree := New(func(a, b mem.PFN) (int, int) { return phys.ComparePage(a, b) })

	// makePage allocates a frame whose first two bytes encode the content
	// id; distinct ids give distinct, totally ordered contents.
	makePage := func(id int) mem.PFN {
		pfn, err := phys.Alloc()
		if err != nil {
			t.Fatalf("out of frames: the test leaked allocations (%v)", err)
		}
		phys.WriteAt(pfn, 0, []byte{byte(id >> 8), byte(id)})
		return pfn
	}

	r := sim.NewRNG(0xB1ACCED)
	live := map[int]*Node{}
	inserts, deletes := 0, 0
	for op := 0; op < ops; op++ {
		id := r.Intn(universe)
		if n, ok := live[id]; ok && r.Bool(0.45) {
			tree.Delete(n)
			phys.DecRef(n.PFN)
			delete(live, id)
			deletes++
		} else if !ok {
			n, inserted := tree.InsertOrGet(makePage(id), id)
			if !inserted {
				t.Fatalf("op %d: content %d not live but tree found a duplicate", op, id)
			}
			live[id] = n
			inserts++
		} else {
			// Content already present: InsertOrGet must return the existing
			// node, not insert a duplicate.
			pfn := makePage(id)
			got, inserted := tree.InsertOrGet(pfn, nil)
			phys.DecRef(pfn)
			if inserted || got != n {
				t.Fatalf("op %d: duplicate content %d not deduplicated", op, id)
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("op %d (after %d inserts, %d deletes, size %d): %v",
				op, inserts, deletes, tree.Size(), err)
		}
		if tree.Size() != len(live) {
			t.Fatalf("op %d: size %d != %d live nodes", op, tree.Size(), len(live))
		}
	}
	if inserts < ops/10 || deletes < ops/10 {
		t.Fatalf("operation mix degenerate: %d inserts, %d deletes", inserts, deletes)
	}

	// In-order traversal must visit strictly increasing contents and agree
	// with the live set.
	last, started, visited := -1, false, 0
	tree.InOrder(func(n *Node) bool {
		id := int(phys.Page(n.PFN)[0])<<8 | int(phys.Page(n.PFN)[1])
		if started && id <= last {
			t.Fatalf("in-order violation: %d after %d", id, last)
		}
		if live[id] != n {
			t.Fatalf("in-order visited node not in live set: id %d", id)
		}
		last, started = id, true
		visited++
		return true
	})
	if visited != len(live) {
		t.Fatalf("in-order visited %d nodes, live %d", visited, len(live))
	}

	// Drain the tree and verify the fixture leaked no frames.
	for id, n := range live {
		tree.Delete(n)
		phys.DecRef(n.PFN)
		delete(live, id)
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("draining id %d: %v", id, err)
		}
	}
	if tree.Size() != 0 || tree.Root() != nil {
		t.Fatal("tree not empty after drain")
	}
	if phys.AllocatedFrames() != 0 {
		t.Fatalf("%d frames leaked", phys.AllocatedFrames())
	}
}
