package pageforge

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/rbtree"
	"repro/internal/sim"
)

// bfs is the reference breadth-first expansion: up to max nodes of the
// subtree rooted at start, in the order the OS loads them into the Scan
// Table ("the root of the red-black tree ... and a few subsequent levels of
// the tree in breadth-first order").
func bfs(start *rbtree.Node, max int) []*rbtree.Node {
	if start == nil || max <= 0 {
		return nil
	}
	out := make([]*rbtree.Node, 0, max)
	queue := []*rbtree.Node{start}
	for len(queue) > 0 && len(out) < max {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		if n.Left() != nil {
			queue = append(queue, n.Left())
		}
		if n.Right() != nil {
			queue = append(queue, n.Right())
		}
	}
	return out
}

// ppnCall is one insert_PPN call.
type ppnCall struct {
	i          int
	pfn        mem.PFN
	less, more int
}

// refLoadBatch is the map-based batch loader loadBatch replaced: bfs, a
// node→index map for in-batch children, and sentinels numbered from
// sentinelBase in link order. It returns the insert_PPN calls it would make.
func refLoadBatch(root *rbtree.Node, max int) (calls []ppnCall, sentinels map[int]*rbtree.Node) {
	batch := bfs(root, max)
	pos := make(map[*rbtree.Node]int, len(batch))
	for i, n := range batch {
		pos[n] = i
	}
	sentinels = make(map[int]*rbtree.Node)
	next := sentinelBase
	link := func(child *rbtree.Node) int {
		if child == nil {
			return InvalidIndex
		}
		if i, ok := pos[child]; ok {
			return i
		}
		sentinels[next] = child
		next++
		return next - 1
	}
	for i, n := range batch {
		calls = append(calls, ppnCall{i, n.PFN, link(n.Left()), link(n.Right())})
	}
	return calls, sentinels
}

// treeRig builds a content-ordered red-black tree of n distinct pages.
func treeRig(t *testing.T, r *sim.RNG, n int) *rbtree.Tree {
	t.Helper()
	phys := mem.New(uint64(n+1) * mem.PageSize)
	tree := rbtree.New(phys.ComparePage)
	for _, k := range r.Perm(n) {
		pfn, err := phys.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		phys.WriteAt(pfn, 0, []byte{byte(k >> 8), byte(k)})
		tree.Insert(pfn, nil)
	}
	return tree
}

func TestBFSOrderAndLimit(t *testing.T) {
	r := sim.NewRNG(3)
	tree := treeRig(t, r, 7)
	all := bfs(tree.Root(), 100)
	if len(all) != 7 {
		t.Fatalf("bfs returned %d nodes, want 7", len(all))
	}
	if all[0] != tree.Root() {
		t.Fatal("bfs does not start at the given root")
	}
	// Level property: children appear after their parents.
	pos := map[*rbtree.Node]int{}
	for i, n := range all {
		pos[n] = i
	}
	for _, n := range all {
		if n.Left() != nil && pos[n.Left()] < pos[n] {
			t.Fatal("child before parent in bfs order")
		}
		if n.Right() != nil && pos[n.Right()] < pos[n] {
			t.Fatal("child before parent in bfs order")
		}
	}
	if limited := bfs(tree.Root(), 3); len(limited) != 3 {
		t.Fatalf("bfs limit ignored: %d", len(limited))
	}
	if bfs(nil, 5) != nil {
		t.Fatal("bfs(nil) != nil")
	}
	if bfs(tree.Root(), 0) != nil {
		t.Fatal("bfs(max=0) != nil")
	}
}

// TestLoadBatchMatchesReference drives loadBatch over random trees at every
// batch size 1..31, from the root and from every subtree a sentinel leads
// to, and checks it against the map-based reference: the same insert_PPN
// (i, pfn, less, more) sequence and the same sentinel→node mapping.
// loadBatch writes entries 0, 1, ... in order, each exactly once, so the
// Scan Table after the call spells out its call sequence.
func TestLoadBatchMatchesReference(t *testing.T) {
	r := sim.NewRNG(11)
	for trial := 0; trial < 12; trial++ {
		tree := treeRig(t, r, 1+r.Intn(300))
		for size := 1; size <= NumOtherPages; size++ {
			d := &Driver{HW: &Engine{}, Cfg: DriverConfig{BatchEntries: size}}
			pending := []*rbtree.Node{tree.Root()}
			for len(pending) > 0 {
				root := pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				wantCalls, wantSentinels := refLoadBatch(root, size)

				d.HW.Table.Reset()
				batch, sentinels := d.loadBatch(root)
				if len(batch) != len(wantCalls) {
					t.Fatalf("size %d: batch of %d nodes, want %d", size, len(batch), len(wantCalls))
				}
				for i, e := range d.HW.Table.Other {
					if i >= len(wantCalls) {
						if e.Valid {
							t.Fatalf("size %d: entry %d written past the batch", size, i)
						}
						continue
					}
					w := wantCalls[i]
					got := ppnCall{i, e.PPN, e.Less, e.More}
					if !e.Valid || got != w || batch[i].PFN != w.pfn {
						t.Fatalf("size %d: entry %d = %+v, want %+v", size, i, got, w)
					}
				}
				if len(sentinels) != len(wantSentinels) {
					t.Fatalf("size %d: %d sentinels, want %d", size, len(sentinels), len(wantSentinels))
				}
				for k, n := range sentinels {
					if wantSentinels[sentinelBase+k] != n {
						t.Fatalf("size %d: sentinel %d maps to the wrong subtree", size, sentinelBase+k)
					}
				}
				pending = append(pending, sentinels...)
			}
		}
	}
}

// TestLoadBatchZeroAlloc pins the Scan Table refill as allocation-free once
// the driver's scratch has grown to the batch size.
func TestLoadBatchZeroAlloc(t *testing.T) {
	tree := treeRig(t, sim.NewRNG(5), 200)
	d := &Driver{HW: &Engine{}}
	if n := testing.AllocsPerRun(100, func() {
		_, sentinels := d.loadBatch(tree.Root())
		for _, s := range sentinels {
			d.loadBatch(s)
		}
	}); n != 0 {
		t.Fatalf("%v allocs per loadBatch round, want 0", n)
	}
}

// TestForcedKeyFinishZeroAlloc pins a Last-Refill batch with an empty table
// — the forced hash-key finish that fetches every missing sampled line —
// as allocation-free.
func TestForcedKeyFinishZeroAlloc(t *testing.T) {
	r := newRig(4)
	cand := r.page(9)
	now := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		r.eng.InsertPFE(cand, true, InvalidIndex)
		info, done := r.run(now)
		if !info.HashReady {
			t.Fatal("forced finish did not complete the key")
		}
		now = done
	}); n != 0 {
		t.Fatalf("%v allocs per forced key finish, want 0", n)
	}
}
