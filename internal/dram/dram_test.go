package dram

import (
	"testing"

	"repro/internal/sim"
)

func TestDecodeInterleavesChannels(t *testing.T) {
	d := New(DefaultConfig())
	g0 := d.Decode(0)
	g1 := d.Decode(64)
	if g0.Channel == g1.Channel {
		t.Fatal("adjacent lines on the same channel")
	}
	g2 := d.Decode(128)
	if g2.Channel != g0.Channel {
		t.Fatal("channel interleave not round-robin")
	}
	if g2.Bank == g0.Bank {
		t.Fatal("same-channel consecutive lines on the same bank")
	}
}

func TestDecodeRowProgression(t *testing.T) {
	d := New(DefaultConfig())
	cfg := d.Config()
	// Lines that map to the same channel+bank but consecutive rows.
	stride := uint64(cfg.Channels*cfg.RanksPerChan*cfg.BanksPerRank) * uint64(cfg.LineBytes)
	linesPerRow := uint64(cfg.RowBytes / cfg.LineBytes)
	a := uint64(0)
	b := stride * linesPerRow
	ga, gb := d.Decode(a), d.Decode(b)
	if ga.Channel != gb.Channel || ga.Bank != gb.Bank {
		t.Fatal("stride math wrong: different bank")
	}
	if gb.Row != ga.Row+1 {
		t.Fatalf("rows %d -> %d, want consecutive", ga.Row, gb.Row)
	}
}

func TestRowHitIsFasterThanConflict(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	// First access: closed bank.
	lat1 := d.Access(0, 0, false, SrcCore)
	want1 := cfg.CtrlOverhead + cfg.TRCD + cfg.TCL + cfg.TBurst
	if lat1 != want1 {
		t.Fatalf("closed-bank latency = %d, want %d", lat1, want1)
	}
	// Same row, much later (no queueing): row hit.
	lat2 := d.Access(0, 10_000, false, SrcCore)
	want2 := cfg.CtrlOverhead + cfg.TCL + cfg.TBurst
	if lat2 != want2 {
		t.Fatalf("row-hit latency = %d, want %d", lat2, want2)
	}
	// Different row, same bank: conflict.
	stride := uint64(cfg.Channels*cfg.RanksPerChan*cfg.BanksPerRank) * uint64(cfg.LineBytes)
	linesPerRow := uint64(cfg.RowBytes / cfg.LineBytes)
	conflictAddr := stride * linesPerRow
	lat3 := d.Access(conflictAddr, 20_000, false, SrcCore)
	want3 := cfg.CtrlOverhead + cfg.TRP + cfg.TRCD + cfg.TCL + cfg.TBurst
	if lat3 != want3 {
		t.Fatalf("conflict latency = %d, want %d", lat3, want3)
	}
	if d.Stats.RowHits != 1 || d.Stats.RowMisses != 1 || d.Stats.RowCloseds != 1 {
		t.Fatalf("row stats %+v", d.Stats)
	}
}

func TestBankContentionQueues(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	// Two back-to-back requests to the same bank at the same cycle: the
	// second waits for the first.
	lat1 := d.Access(0, 0, false, SrcCore)
	lat2 := d.Access(0, 0, false, SrcCore)
	if lat2 <= lat1 {
		t.Fatalf("second same-bank request latency %d <= first %d", lat2, lat1)
	}
}

func TestChannelBusSerializesBursts(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	// Same channel, different banks, same arrival: bursts share one bus.
	banksPerChan := uint64(cfg.RanksPerChan * cfg.BanksPerRank)
	a := uint64(0)
	b := uint64(cfg.Channels) * uint64(cfg.LineBytes) // next bank, same channel
	if d.Decode(a).Channel != d.Decode(b).Channel {
		t.Fatal("setup: different channels")
	}
	_ = banksPerChan
	lat1 := d.Access(a, 0, false, SrcCore)
	lat2 := d.Access(b, 0, false, SrcCore)
	if lat2 != lat1+cfg.TBurst {
		t.Fatalf("bus conflict latency = %d, want %d", lat2, lat1+cfg.TBurst)
	}
	// Different channel: no bus interaction.
	c := uint64(cfg.LineBytes) // channel 1
	lat3 := d.Access(c, 0, false, SrcCore)
	if lat3 != lat1 {
		t.Fatalf("independent channel latency = %d, want %d", lat3, lat1)
	}
}

func TestTotalBytesAndRowHitRate(t *testing.T) {
	d := New(DefaultConfig())
	r := sim.NewRNG(1)
	for i := 0; i < 1000; i++ {
		d.Access(uint64(r.Intn(1<<20))*64, uint64(i*10), r.Bool(0.3), SrcPageForge)
	}
	if d.TotalBytes(SrcPageForge) != 64000 {
		t.Fatalf("TotalBytes = %d", d.TotalBytes(SrcPageForge))
	}
	hr := d.RowHitRate()
	if hr < 0 || hr > 1 {
		t.Fatalf("row hit rate %g out of range", hr)
	}
	if d.Stats.Reads+d.Stats.Writes != 1000 {
		t.Fatal("read/write accounting wrong")
	}
}

func TestSequentialStreamMostlyRowHits(t *testing.T) {
	// A dense sequential sweep within one bank's row should mostly hit.
	cfg := DefaultConfig()
	d := New(cfg)
	stride := uint64(cfg.Channels*cfg.RanksPerChan*cfg.BanksPerRank) * uint64(cfg.LineBytes)
	now := uint64(0)
	for i := uint64(0); i < 64; i++ { // 64 lines within the same row
		d.Access(i*stride%((uint64(cfg.RowBytes/cfg.LineBytes))*stride), now, false, SrcCore)
		now += 100
	}
	if d.RowHitRate() < 0.9 {
		t.Fatalf("row hit rate %g for single-row sweep", d.RowHitRate())
	}
}

// TestBadConfigPanics pins New's rejection of a geometry it cannot decode:
// the zero Config, negative dimensions whose product is positive, and
// every dimension Decode divides by set to something other than a power
// of two.
func TestBadConfigPanics(t *testing.T) {
	bad := []struct {
		name string
		edit func(*Config)
	}{
		{"zero", func(c *Config) { *c = Config{} }},
		{"negative ranks and banks", func(c *Config) { c.RanksPerChan, c.BanksPerRank = -1, -8 }},
		{"three channels", func(c *Config) { c.Channels = 3 }},
		{"six banks", func(c *Config) { c.BanksPerRank = 6 }},
		{"odd row", func(c *Config) { c.RowBytes = 3 << 10 }},
		{"48B lines", func(c *Config) { c.LineBytes = 48 }},
	}
	for _, b := range bad {
		cfg := DefaultConfig()
		b.edit(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: bad config %+v accepted", b.name, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// decodeDiv is Decode by division: the reference the shift-and-mask
// decoder must reproduce.
func decodeDiv(cfg Config, addr uint64) Geometry {
	lineN := addr / uint64(cfg.LineBytes)
	ch := int(lineN % uint64(cfg.Channels))
	rest := lineN / uint64(cfg.Channels)
	banksPerChan := uint64(cfg.RanksPerChan * cfg.BanksPerRank)
	bankIdx := int(rest % banksPerChan)
	rowInBank := rest / banksPerChan
	linesPerRow := uint64(cfg.RowBytes / cfg.LineBytes)
	return Geometry{Channel: ch, Bank: bankIdx, Row: int64(rowInBank / linesPerRow)}
}

// TestDecodeShiftMatchesDivision compares Decode with its division form on
// power-of-two geometries over low, random and top-of-range addresses.
func TestDecodeShiftMatchesDivision(t *testing.T) {
	geometries := []struct {
		name string
		edit func(*Config)
	}{
		{"default", func(*Config) {}},
		{"one channel", func(c *Config) { c.Channels = 1 }},
		{"wide", func(c *Config) { c.Channels, c.RanksPerChan, c.RowBytes = 4, 2, 2<<10 }},
	}
	rng := sim.NewRNG(5)
	for _, g := range geometries {
		cfg := DefaultConfig()
		g.edit(&cfg)
		d := New(cfg)
		addrs := []uint64{0, 63, 64, 8191, 8192, 1 << 34, ^uint64(0), ^uint64(0) - 4095}
		for i := 0; i < 2000; i++ {
			addrs = append(addrs, rng.Uint64()>>uint(rng.Intn(40)))
		}
		for _, a := range addrs {
			if got, want := d.Decode(a), decodeDiv(cfg, a); got != want {
				t.Fatalf("%s: Decode(%#x) = %+v, division gives %+v", g.name, a, got, want)
			}
		}
	}
}
