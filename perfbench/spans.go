package main

import (
	"sort"
	"time"
)

// span is one timed interval the benchmark records around a call into the
// simulator. The spans of one operation share Trace; Parent is 0 for the
// operation's root span.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the benchmark writes them out. A nil
// recorder records nothing, which is how untraced operations run.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(trace, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (r *recorder) open(trace, parent int, name string, start time.Time) int {
	return r.add(trace, parent, name, start, start)
}

func (r *recorder) close(id int, end time.Time) {
	if r == nil {
		return
	}
	r.spans[id-1].End = int64(end.Sub(r.epoch))
}

// selfTimes returns each span's self time by id: its duration minus the part
// of its interval that its children cover. Overlapping children count once,
// and a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals, clipped to p.
func covered(p span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = p.Start
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
			end = x[1]
		}
	}
	return time.Duration(total)
}
