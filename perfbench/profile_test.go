package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/ecc.EncodeLine", "repro/internal/memctrl.(*Controller).FetchLine"}, "ecc"},
		{[]string{"runtime.mallocgc", "repro/internal/rbtree.(*Tree).Insert", "repro/internal/ksm.(*Scanner).ScanOne"}, "rbtree"},
		{[]string{"repro/internal/platform.(*Runtime).Start.func1"}, "platform"},
		{[]string{"repro/internal/obs"}, "obs"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, runtimeLayer},
		{[]string{"main.runOp", "main.bench"}, runtimeLayer},
		{nil, runtimeLayer},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestFoldByLayer(t *testing.T) {
	samples := []sample{
		{frames: []string{"repro/internal/ecc.EncodeLine"}, ns: 30},
		{frames: []string{"runtime.memmove", "repro/internal/ecc.EncodeLine"}, ns: 10},
		{frames: []string{"repro/internal/cache.(*Cache).find"}, ns: 5},
		{frames: []string{"runtime.scanobject"}, ns: 7},
	}
	got := map[string]int64{}
	foldByLayer(samples, got)
	want := map[string]int64{"ecc": 40, "cache": 5, runtimeLayer: 7}
	if len(got) != len(want) {
		t.Fatalf("folded %v, want %v", got, want)
	}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("layer %s: %d ns, want %d", l, got[l], ns)
		}
	}
}

var spinSink uint64

// TestParseCPUProfile decodes a real profile from the Go runtime: a busy
// loop must show up as samples whose CPU time adds to something positive.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			spinSink = spinSink*31 + uint64(i)
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.ns
		for _, f := range s.frames {
			found = found || strings.HasSuffix(f, ".TestParseCPUProfile")
		}
	}
	if len(samples) == 0 || total <= 0 {
		t.Fatalf("%d samples, %d ns", len(samples), total)
	}
	if !found {
		t.Errorf("no sample names the busy test function")
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("want an error for non-gzip input")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	pprof.StopCPUProfile()
	// A valid gzip stream around a truncated message.
	raw := buf.Bytes()
	if _, err := parseCPUProfile(raw[:len(raw)/2]); err == nil {
		t.Fatal("want an error for a truncated profile")
	}
}

func TestProtobufReader(t *testing.T) {
	// field 1 varint 150; field 2 packed [1 2 300]; field 3 unpacked 7.
	msg := []byte{0x08, 0x96, 0x01, 0x12, 0x04, 0x01, 0x02, 0xac, 0x02, 0x18, 0x07}
	p := pb{b: msg}
	var got []uint64
	for p.more() {
		f, w := p.key()
		switch f {
		case 1:
			got = append(got, p.varint())
		default:
			got = p.uints(w, got)
		}
	}
	want := []uint64{150, 1, 2, 300, 7}
	if p.err != nil || len(got) != len(want) {
		t.Fatalf("got %v err %v, want %v", got, p.err, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
