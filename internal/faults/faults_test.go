package faults

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// replay drives a model through a fixed pseudo-random access schedule and
// returns the concatenated corrupted outputs, so two models can be
// compared for bit-identical behaviour.
func replay(m *Model, scheduleSeed uint64, steps int) []byte {
	r := sim.NewRNG(scheduleSeed)
	var out []byte
	line := make([]byte, mem.LineSize)
	for i := 0; i < steps; i++ {
		addr := uint64(mem.PFN(r.Intn(32)).LineAddr(r.Intn(mem.LinesPerPage)))
		now := uint64(i) * 1000
		for j := range line {
			line[j] = byte(i + j)
		}
		m.Corrupt(addr, now, line)
		out = append(out, line...)
	}
	return out
}

func TestModelDeterminism(t *testing.T) {
	cfg := Config{
		Seed:             42,
		TransientPerRead: 0.3,
		DoubleBitPerRead: 0.1,
		StuckUEWords:     4,
		Frames:           32,
	}
	a := replay(NewModel(cfg), 7, 500)
	b := replay(NewModel(cfg), 7, 500)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, same schedule: fault model output differs")
	}
	cfg2 := cfg
	cfg2.Seed = 43
	c := replay(NewModel(cfg2), 7, 500)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced an identical fault schedule")
	}
}

// TestStuckWordsPersist: a stuck word is a hard fault. The model keeps no
// write history, so a write-back cannot heal it: its corruption depends
// only on the line and its contents, and repeated reads of the same
// contents corrupt identically.
func TestStuckWordsPersist(t *testing.T) {
	cfg := Config{Seed: 9, StuckUEWords: 2, Frames: 4}
	m := NewModel(cfg)
	lines := m.StuckLines()
	if len(lines) == 0 {
		t.Fatal("no stuck lines placed")
	}
	addr := lines[0]
	read := func() []byte {
		l := bytes.Repeat([]byte{0x55}, mem.LineSize) // alternating bits: any stuck cell disagrees half the time
		m.Corrupt(addr, 100, l)
		return l
	}
	first := read()
	if bytes.Equal(first, bytes.Repeat([]byte{0x55}, mem.LineSize)) {
		// Both stuck values may coincide with the stored pattern; probe the
		// complement, where every previously-agreeing cell must disagree.
		l := bytes.Repeat([]byte{0xAA}, mem.LineSize)
		m.Corrupt(addr, 100, l)
		if bytes.Equal(l, bytes.Repeat([]byte{0xAA}, mem.LineSize)) {
			t.Fatal("stuck cells corrupted neither 0x55 nor 0xAA pattern")
		}
		first = l
	}
	// Persistent: the same read yields the same corruption.
	second := read()
	third := read()
	if !bytes.Equal(second, third) {
		t.Fatal("stuck-cell corruption is not stable across reads")
	}
}

func TestRateTrackerTripAndHysteresis(t *testing.T) {
	tr := NewRateTracker(Trip{TripRate: 0.01, ClearRate: 0.001, Alpha: 1, MinFetches: 100})
	// Healthy windows: no trip.
	fetches, ues := uint64(0), uint64(0)
	for i := 0; i < 5; i++ {
		fetches += 1000
		if tr.Observe(fetches, ues, uint64(i)) {
			t.Fatal("tripped with zero UEs")
		}
	}
	// A window below MinFetches must not update anything.
	if tr.Observe(fetches+10, ues+10, 99) {
		t.Fatal("tripped on a sub-minimum window")
	}
	// UE storm: trips exactly once, with the right stamp.
	fetches += 1000
	ues += 100
	if !tr.Observe(fetches, ues, 7) {
		t.Fatal("did not trip at 10% UE rate")
	}
	if !tr.Degraded() || tr.TrippedAt() != 7 {
		t.Fatalf("degraded=%v trippedAt=%d", tr.Degraded(), tr.TrippedAt())
	}
	fetches += 1000
	ues += 100
	if tr.Observe(fetches, ues, 8) {
		t.Fatal("re-tripped while already degraded")
	}
	// Rate between clear and trip: hysteresis holds the degraded state.
	fetches += 1000
	ues += 5 // 0.5%: below trip, above clear
	tr.Observe(fetches, ues, 9)
	if !tr.Degraded() {
		t.Fatal("cleared inside the hysteresis band")
	}
	// Clean windows push the rate below ClearRate: re-arms.
	for i := 0; i < 10; i++ {
		fetches += 1000
		tr.Observe(fetches, ues, uint64(10+i))
	}
	if tr.Degraded() {
		t.Fatal("did not re-arm after sustained clean windows")
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	for _, c := range []Config{
		{TransientPerRead: 0.1},
		{DoubleBitPerRead: 0.1},
		{StuckUEWords: 1},
	} {
		if !c.Enabled() {
			t.Fatalf("config %+v reports disabled", c)
		}
	}
}
