package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "start", Start: 0, End: 10},
		{Trace: 1, ID: 3, Parent: 1, Name: "step", Start: 20, End: 50},
		{Trace: 1, ID: 4, Parent: 1, Name: "step", Start: 40, End: 60},     // overlaps 3
		{Trace: 1, ID: 5, Parent: 1, Name: "latency", Start: 90, End: 120}, // ends past its parent
		{Trace: 1, ID: 6, Parent: 3, Name: "inner", Start: 25, End: 30},
		{Trace: 2, ID: 7, Parent: 0, Name: "op", Start: 200, End: 250},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - (10 + 40 + 10), // children cover [0,10) [20,60) [90,100)
		2: 10,
		3: 30 - 5,
		4: 20,
		5: 30,
		6: 5,
		7: 50, // another trace's root has no children
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestCoveredNestedAndDisjoint(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 80}, {Start: 20, End: 30}, {Start: 150, End: 160}}
	if got := covered(p, kids); got != 70 {
		t.Errorf("covered = %v, want 70", got)
	}
	if got := covered(p, nil); got != 0 {
		t.Errorf("covered with no children = %v", got)
	}
}

func TestRecorderParents(t *testing.T) {
	r := newRecorder()
	t0 := r.epoch
	root := r.open(3, 0, "op", t0)
	child := r.add(3, root, "step", t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	r.close(root, t0.Add(5*time.Millisecond))
	if len(r.spans) != 2 || r.spans[child-1].Parent != root || r.spans[root-1].Trace != 3 {
		t.Fatalf("spans %+v", r.spans)
	}
	if d := r.spans[root-1].dur(); d != 5*time.Millisecond {
		t.Errorf("root duration %v", d)
	}
	if self := selfTimes(r.spans)[root]; self != 3*time.Millisecond {
		t.Errorf("root self %v, want 3ms", self)
	}

	var off *recorder // untraced runs record nothing
	id := off.open(1, 0, "op", t0)
	off.add(1, id, "step", t0, t0)
	off.close(id, t0)
}
