// Package rbtree implements the content-indexed red-black trees at the
// heart of KSM (Section 2.1 of the paper): nodes are physical pages, and
// the tree is ordered by byte-wise comparison of page contents. Every
// comparison's cost (bytes examined before divergence) is accounted, since
// that cost — paid in core cycles by software KSM and in memory-controller
// line reads by PageForge — is what the paper measures.
package rbtree

import (
	"fmt"

	"repro/internal/mem"
)

// CompareFunc three-way-compares the contents of two frames, returning the
// memcmp-style sign and the number of bytes examined.
type CompareFunc func(a, b mem.PFN) (cmp int, bytes int)

// Node is a tree node holding one physical page.
type Node struct {
	PFN  mem.PFN
	Item interface{} // caller payload (KSM attaches its rmap item here)

	left, right, parent *Node
	owner               *Tree // the tree (shard) the node was inserted into
	red                 bool
}

// Owner reports the tree the node currently belongs to (nil after Delete).
// Sharded deletion dispatches on it instead of re-routing by content, which
// matters for unstable nodes: their pages are not write-protected, so the
// content a route would read may have changed since insertion.
func (n *Node) Owner() *Tree { return n.owner }

// Left returns the left child (nil at a leaf).
func (n *Node) Left() *Node { return n.left }

// Right returns the right child (nil at a leaf).
func (n *Node) Right() *Node { return n.right }

// Tree is a content-indexed red-black tree.
type Tree struct {
	root *Node
	size int
	cmp  CompareFunc

	// Comparisons counts three-way content comparisons performed.
	Comparisons uint64
	// BytesCompared counts the total bytes examined across comparisons.
	BytesCompared uint64
}

// New returns an empty tree ordered by cmp.
func New(cmp CompareFunc) *Tree {
	if cmp == nil {
		panic("rbtree: nil comparator")
	}
	return &Tree{cmp: cmp}
}

// Size reports the number of nodes.
func (t *Tree) Size() int { return t.size }

// Root returns the root node (nil when empty).
func (t *Tree) Root() *Node { return t.root }

// Reset discards all nodes; KSM destroys the unstable tree after each pass
// this way ("throw away and regenerate").
func (t *Tree) Reset() {
	t.root = nil
	t.size = 0
}

func (t *Tree) compare(a, b mem.PFN) int {
	c, n := t.cmp(a, b)
	t.Comparisons++
	t.BytesCompared += uint64(n)
	return c
}

// Lookup finds a node whose page contents equal those of pfn, or nil.
func (t *Tree) Lookup(pfn mem.PFN) *Node {
	n := t.root
	for n != nil {
		switch c := t.compare(pfn, n.PFN); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// InsertOrGet searches for a content-equal node; if none exists it inserts
// a new node for pfn in a single descent and returns (node, true). If a
// duplicate exists, it returns (existing, false) — exactly the
// search-or-insert KSM performs on the unstable tree.
func (t *Tree) InsertOrGet(pfn mem.PFN, item interface{}) (*Node, bool) {
	var parent *Node
	link := &t.root
	for *link != nil {
		parent = *link
		switch c := t.compare(pfn, parent.PFN); {
		case c < 0:
			link = &parent.left
		case c > 0:
			link = &parent.right
		default:
			return parent, false
		}
	}
	n := &Node{PFN: pfn, Item: item, parent: parent, owner: t, red: true}
	*link = n
	t.size++
	t.insertFixup(n)
	return n, true
}

// Insert adds a node for pfn even if a content-equal node exists (ties go
// right). The stable tree can legitimately hold distinct merged pages; KSM
// itself never inserts duplicates, but algorithm experiments may.
func (t *Tree) Insert(pfn mem.PFN, item interface{}) *Node {
	var parent *Node
	link := &t.root
	for *link != nil {
		parent = *link
		if c := t.compare(pfn, parent.PFN); c < 0 {
			link = &parent.left
		} else {
			link = &parent.right
		}
	}
	n := &Node{PFN: pfn, Item: item, parent: parent, owner: t, red: true}
	*link = n
	t.size++
	t.insertFixup(n)
	return n
}

func (t *Tree) rotateLeft(x *Node) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree) rotateRight(x *Node) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func isRed(n *Node) bool { return n != nil && n.red }

func (t *Tree) insertFixup(z *Node) {
	for isRed(z.parent) {
		g := z.parent.parent // grandparent exists: root is black
		if z.parent == g.left {
			u := g.right
			if isRed(u) {
				z.parent.red = false
				u.red = false
				g.red = true
				z = g
				continue
			}
			if z == z.parent.right {
				z = z.parent
				t.rotateLeft(z)
			}
			z.parent.red = false
			g.red = true
			t.rotateRight(g)
		} else {
			u := g.left
			if isRed(u) {
				z.parent.red = false
				u.red = false
				g.red = true
				z = g
				continue
			}
			if z == z.parent.left {
				z = z.parent
				t.rotateRight(z)
			}
			z.parent.red = false
			g.red = true
			t.rotateLeft(g)
		}
	}
	t.root.red = false
}

func minimum(n *Node) *Node {
	for n.left != nil {
		n = n.left
	}
	return n
}

// transplant replaces subtree u with subtree v (v may be nil).
func (t *Tree) transplant(u, v *Node) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

// Delete removes node z from the tree. The node must belong to this tree.
// KSM removes a page from the unstable tree when it merges, and from the
// stable tree when its last sharer CoW-breaks away.
func (t *Tree) Delete(z *Node) {
	if z == nil {
		panic("rbtree: Delete(nil)")
	}
	var x, xParent *Node
	y := z
	yWasRed := y.red
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = minimum(z.right)
		yWasRed = y.red
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.red = z.red
	}
	t.size--
	if !yWasRed {
		t.deleteFixup(x, xParent)
	}
	z.left, z.right, z.parent, z.owner = nil, nil, nil, nil
}

func (t *Tree) deleteFixup(x, parent *Node) {
	for x != t.root && !isRed(x) {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if isRed(w) {
				w.red = false
				parent.red = true
				t.rotateLeft(parent)
				w = parent.right
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if !isRed(w.left) && !isRed(w.right) {
				w.red = true
				x = parent
				parent = x.parent
			} else {
				if !isRed(w.right) {
					if w.left != nil {
						w.left.red = false
					}
					w.red = true
					t.rotateRight(w)
					w = parent.right
				}
				w.red = parent.red
				parent.red = false
				if w.right != nil {
					w.right.red = false
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if isRed(w) {
				w.red = false
				parent.red = true
				t.rotateRight(parent)
				w = parent.left
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if !isRed(w.left) && !isRed(w.right) {
				w.red = true
				x = parent
				parent = x.parent
			} else {
				if !isRed(w.left) {
					if w.right != nil {
						w.right.red = false
					}
					w.red = true
					t.rotateLeft(w)
					w = parent.left
				}
				w.red = parent.red
				parent.red = false
				if w.left != nil {
					w.left.red = false
				}
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.red = false
	}
}

// InOrder visits nodes in content order; the visitor returns false to stop.
func (t *Tree) InOrder(visit func(*Node) bool) {
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if n == nil {
			return true
		}
		return walk(n.left) && visit(n) && walk(n.right)
	}
	walk(t.root)
}

// CheckInvariants validates the red-black properties and the content
// ordering; it is used by property-based tests.
func (t *Tree) CheckInvariants() error {
	if isRed(t.root) {
		return fmt.Errorf("rbtree: red root")
	}
	count := 0
	var check func(n *Node) (blackHeight int, err error)
	check = func(n *Node) (int, error) {
		if n == nil {
			return 1, nil
		}
		count++
		if isRed(n) && (isRed(n.left) || isRed(n.right)) {
			return 0, fmt.Errorf("rbtree: red node %d has red child", n.PFN)
		}
		if n.left != nil && n.left.parent != n {
			return 0, fmt.Errorf("rbtree: broken parent link at %d", n.PFN)
		}
		if n.right != nil && n.right.parent != n {
			return 0, fmt.Errorf("rbtree: broken parent link at %d", n.PFN)
		}
		lh, err := check(n.left)
		if err != nil {
			return 0, err
		}
		rh, err := check(n.right)
		if err != nil {
			return 0, err
		}
		if lh != rh {
			return 0, fmt.Errorf("rbtree: black-height mismatch at %d (%d vs %d)", n.PFN, lh, rh)
		}
		if isRed(n) {
			return lh, nil
		}
		return lh + 1, nil
	}
	if _, err := check(t.root); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rbtree: size %d but %d reachable nodes", t.size, count)
	}
	// Content ordering.
	var prev *Node
	var orderErr error
	t.InOrder(func(n *Node) bool {
		if prev != nil {
			if c, _ := t.cmp(prev.PFN, n.PFN); c > 0 {
				orderErr = fmt.Errorf("rbtree: order violation between %d and %d", prev.PFN, n.PFN)
				return false
			}
		}
		prev = n
		return true
	})
	return orderErr
}
