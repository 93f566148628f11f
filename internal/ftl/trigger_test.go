package ftl

import (
	"testing"

	"repro/internal/sim"
)

// newLowDevice is a tiny 4-chip device with every LPN written once and
// on flash: 108 of its 128 pages, so some chip is below its low
// watermark (a seventh block opened), with GC idle, because no block
// holds garbage. It returns that chip and an LPN in one of its full
// blocks, whose death makes the block a victim.
func newLowDevice(t *testing.T, cfg Config) (eng *sim.Engine, f *PageFTL, chip int, lpn int64) {
	t.Helper()
	cfg.OverProvision = 0.15
	eng, f = newTinyFTL(t, cfg)
	for l := range f.Capacity() {
		f.WriteLPN(l, pageData(f.PageSize(), byte(l)), func(err error) {
			if err != nil {
				t.Fatalf("write lpn %d: %v", l, err)
			}
		})
		eng.Run()
	}
	f.Flush(func() {})
	eng.Run()
	if s := f.Stats(); s.GCErases != 0 || s.GCMoves != 0 {
		t.Fatalf("the fill collected: %d moves, %d erases", s.GCMoves, s.GCErases)
	}
	for c := range f.chips {
		cs := &f.chips[c]
		if len(cs.free) >= f.cfg.GCLowWater || cs.gcActive || f.pickVictim(c) != InvalidPBA {
			continue
		}
		for l := range f.Capacity() {
			ppa := f.lookup(l)
			if f.arr.ChipOf(ppa) == c && f.blocks[f.arr.BlockOf(ppa)].state == blockFull {
				return eng, f, c, l
			}
		}
	}
	t.Fatal("no chip below its low watermark with a full block and GC idle")
	return
}

// A chip below its low watermark collects as soon as it holds a victim,
// however the garbage got there — not only when a program lands on it.
// Each case puts a victim on an idle chip with no program of its own:
// a volatile buffer's write-back that lands on another chip and kills
// the LPN's old copy, a safe buffer that supersedes the flash copy when
// it acknowledges a rewrite, and a trim. No host write waits on a full
// buffer in any of them.
func TestGCStartsWhereGarbageAppears(t *testing.T) {
	volatile := writeThroughConfig()
	volatile.BufferPages = 4
	safe := volatile
	safe.BufferSafe = true
	cases := []struct {
		name string
		cfg  Config
		kill func(t *testing.T, eng *sim.Engine, f *PageFTL, chip int, lpn int64)
	}{
		{"write-back elsewhere", volatile, func(t *testing.T, eng *sim.Engine, f *PageFTL, chip int, lpn int64) {
			// A read keeps the chip's LUN busy, so placement sends the
			// write-back to another chip.
			f.ReadLPN(lpn, func([]byte, error) {})
			f.WriteLPN(lpn, pageData(f.PageSize(), 0xA1), func(error) {})
			landed := -1
			f.Flush(func() { landed = f.arr.ChipOf(f.lookup(lpn)) })
			eng.Run()
			if landed < 0 || landed == chip {
				t.Fatalf("the write-back landed on chip %d, want a chip other than %d", landed, chip)
			}
		}},
		{"safe supersede", safe, func(t *testing.T, eng *sim.Engine, f *PageFTL, chip int, lpn int64) {
			acked := false
			f.WriteLPN(lpn, pageData(f.PageSize(), 0xA2), func(error) { acked = true })
			eng.Run()
			if !acked || f.buf.resident != 1 || f.lookup(lpn) != InvalidPPA {
				t.Fatalf("the rewrite is not resident alone with its flash copy dead (acked %v, %d resident)", acked, f.buf.resident)
			}
		}},
		{"trim", writeThroughConfig(), func(t *testing.T, eng *sim.Engine, f *PageFTL, chip int, lpn int64) {
			if err := f.Trim(lpn); err != nil {
				t.Fatal(err)
			}
			eng.Run()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, f, chip, lpn := newLowDevice(t, tc.cfg)
			tc.kill(t, eng, f, chip, lpn)
			if f.Stats().GCErases == 0 {
				t.Fatalf("chip %d holds a victim below its low watermark (%d free blocks, %d) and never collected",
					chip, len(f.chips[chip].free), f.cfg.GCLowWater)
			}
		})
	}
}
