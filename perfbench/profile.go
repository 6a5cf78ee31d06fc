package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is read with a minimal decoder for the subset of the
// pprof protobuf format (github.com/google/pprof/proto/profile.proto) that
// runtime/pprof writes: sample types, samples, locations, functions and the
// string table. The module is standard-library only, so there is no pprof
// package to lean on.

// sample is one CPU-profile sample: its stack as function names, innermost
// frame first (inlined frames included), and the CPU time it stands for.
type sample struct {
	frames []string
	ns     int64
}

// modulePrefix marks the simulator's own packages in a function name.
const modulePrefix = "repro/internal/"

// runtimeLayer collects samples with no simulator frame: the Go runtime's
// background work (GC, scheduler) and the benchmark's own code.
const runtimeLayer = "go_runtime"

// layerOf names the layer a stack's time belongs to: the package of its
// innermost repro/internal frame, or runtimeLayer when it has none.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return runtimeLayer
}

// foldByLayer adds each sample's CPU time to its layer.
func foldByLayer(samples []sample, into map[string]int64) {
	for _, s := range samples {
		into[layerOf(s.frames)] += s.ns
	}
}

// parseCPUProfile decodes a gzipped CPU profile as written by
// runtime/pprof.StartCPUProfile.
func parseCPUProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		types     [][2]int64 // sample_type: (type, unit) string indexes
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions = map[uint64]int64{}    // function id -> name string index
		strs      []string
	)
	p := pb{b: raw}
	for p.more() {
		field, wire := p.key()
		switch {
		case field == 1 && wire == 2:
			m := p.msg()
			var vt [2]int64
			for m.more() {
				f, w := m.key()
				if (f == 1 || f == 2) && w == 0 {
					vt[f-1] = int64(m.varint())
				} else {
					m.skip(w)
				}
			}
			types = append(types, vt)
			p.adopt(m.err)
		case field == 2 && wire == 2:
			m := p.msg()
			var s rawSample
			for m.more() {
				f, w := m.key()
				switch f {
				case 1:
					s.locs = m.uints(w, s.locs)
				case 2:
					for _, v := range m.uints(w, nil) {
						s.values = append(s.values, int64(v))
					}
				default:
					m.skip(w)
				}
			}
			samples = append(samples, s)
			p.adopt(m.err)
		case field == 4 && wire == 2:
			m := p.msg()
			var id uint64
			var fns []uint64
			for m.more() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 4 && w == 2:
					line := m.msg()
					for line.more() {
						lf, lw := line.key()
						if lf == 1 && lw == 0 {
							fns = append(fns, line.varint())
						} else {
							line.skip(lw)
						}
					}
					m.adopt(line.err)
				default:
					m.skip(w)
				}
			}
			locations[id] = fns
			p.adopt(m.err)
		case field == 5 && wire == 2:
			m := p.msg()
			var id uint64
			var name int64
			for m.more() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 2 && w == 0:
					name = int64(m.varint())
				default:
					m.skip(w)
				}
			}
			functions[id] = name
			p.adopt(m.err)
		case field == 6 && wire == 2:
			strs = append(strs, string(p.bytes()))
		default:
			p.skip(wire)
		}
	}
	if p.err != nil {
		return nil, fmt.Errorf("cpu profile: %w", p.err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range types {
		if str(t[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, fmt.Errorf("cpu profile: no nanoseconds sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, fmt.Errorf("cpu profile: sample has %d values, want > %d", len(s.values), cpu)
		}
		var frames []string
		for _, l := range s.locs {
			for _, fn := range locations[l] {
				frames = append(frames, str(functions[fn]))
			}
		}
		out = append(out, sample{frames: frames, ns: s.values[cpu]})
	}
	return out, nil
}

// pb reads protobuf wire format. The first error sticks and ends reading.
type pb struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated protobuf")

func (p *pb) more() bool { return p.err == nil && len(p.b) > 0 }

func (p *pb) varint() uint64 {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.fail()
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.fail()
	return 0
}

func (p *pb) key() (field, wire int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

func (p *pb) bytes() []byte {
	n := p.varint()
	if p.err != nil || n > uint64(len(p.b)) {
		p.fail()
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

func (p *pb) msg() *pb { return &pb{b: p.bytes()} }

// adopt keeps the first error of a nested message.
func (p *pb) adopt(err error) {
	if p.err == nil {
		p.err = err
	}
}

// uints appends a repeated integer field, packed (wire type 2) or not.
func (p *pb) uints(wire int, dst []uint64) []uint64 {
	if wire == 0 {
		return append(dst, p.varint())
	}
	if wire != 2 {
		p.skip(wire)
		return dst
	}
	m := p.msg()
	for m.more() {
		dst = append(dst, m.varint())
	}
	p.adopt(m.err)
	return dst
}

func (p *pb) skip(wire int) {
	switch wire {
	case 0:
		p.varint()
	case 1:
		p.advance(8)
	case 2:
		p.bytes()
	case 5:
		p.advance(4)
	default:
		p.err = fmt.Errorf("unsupported protobuf wire type %d", wire)
	}
}

func (p *pb) advance(n int) {
	if n > len(p.b) {
		p.fail()
		return
	}
	p.b = p.b[n:]
}

func (p *pb) fail() {
	if p.err == nil {
		p.err = errTruncated
	}
	p.b = nil
}
