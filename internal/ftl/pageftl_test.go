package ftl

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/ecc"
	"repro/internal/nand"
	"repro/internal/sim"
)

// tinySpec is a minimal chip for FTL tests: 256 B pages, 4 pages/block,
// 8 blocks/plane, 1 plane, 1 LUN -> 8 blocks, 32 pages per chip.
func tinySpec() nand.Spec {
	return nand.Spec{
		Name: "tiny",
		Geometry: nand.Geometry{
			PageSize: 256, OOBSize: 16, PagesPerBlock: 4,
			BlocksPerPlane: 8, PlanesPerLUN: 1, LUNsPerChip: 1,
		},
		Timing: nand.Timing{
			ReadPage:    50 * sim.Microsecond,
			ProgramPage: 600 * sim.Microsecond,
			EraseBlock:  3 * sim.Millisecond,
		},
		Reliability: nand.Reliability{RatedCycles: 1_000_000},
	}
}

func tinyArray(t *testing.T, channels, chipsPerChannel int) (*sim.Engine, *Array) {
	t.Helper()
	eng := sim.NewEngine()
	arr, err := NewArray(eng, ArrayConfig{
		Channels:        channels,
		ChipsPerChannel: chipsPerChannel,
		Chip:            tinySpec(),
		Channel:         bus.Config{MBPerSec: 200, CmdOverhead: sim.Microsecond},
	}, 0)
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	return eng, arr
}

// writeThroughConfig disables buffering so every host write hits flash.
func writeThroughConfig() Config {
	return Config{
		OverProvision: 0.25,
		GCLowWater:    2, GCHighWater: 3, gcReserve: 1,
		GCPolicy:  GCGreedy,
		Placement: PlaceDynamic,
		ECC:       ecc.BCH8Per512,
		Seed:      1,
	}
}

func newTinyFTL(t *testing.T, cfg Config) (*sim.Engine, *PageFTL) {
	t.Helper()
	eng, arr := tinyArray(t, 2, 2)
	f, err := NewPageFTL(arr, cfg)
	if err != nil {
		t.Fatalf("NewPageFTL: %v", err)
	}
	return eng, f
}

func pageData(ps int, fill byte) []byte {
	d := make([]byte, ps)
	for i := range d {
		d[i] = fill
	}
	return d
}

func mustWrite(t *testing.T, eng *sim.Engine, f *PageFTL, lpn int64, fill byte) {
	t.Helper()
	var gotErr error
	done := false
	f.WriteLPN(lpn, pageData(f.PageSize(), fill), func(err error) {
		gotErr, done = err, true
	})
	eng.Run()
	if !done {
		t.Fatalf("write lpn %d never completed", lpn)
	}
	if gotErr != nil {
		t.Fatalf("write lpn %d: %v", lpn, gotErr)
	}
}

func mustRead(t *testing.T, eng *sim.Engine, f *PageFTL, lpn int64) []byte {
	t.Helper()
	var data []byte
	var gotErr error
	done := false
	f.ReadLPN(lpn, func(d []byte, err error) { data, gotErr, done = d, err, true })
	eng.Run()
	if !done {
		t.Fatalf("read lpn %d never completed", lpn)
	}
	if gotErr != nil {
		t.Fatalf("read lpn %d: %v", lpn, gotErr)
	}
	return data
}

func TestPageFTLRoundTrip(t *testing.T) {
	eng, f := newTinyFTL(t, writeThroughConfig())
	mustWrite(t, eng, f, 5, 0xAA)
	got := mustRead(t, eng, f, 5)
	if !bytes.Equal(got, pageData(256, 0xAA)) {
		t.Fatal("round trip failed")
	}
}

func TestPageFTLUnwrittenReadsNil(t *testing.T) {
	eng, f := newTinyFTL(t, writeThroughConfig())
	if got := mustRead(t, eng, f, 7); got != nil {
		t.Fatalf("unwritten read returned %v", got)
	}
}

func TestPageFTLOverwrite(t *testing.T) {
	eng, f := newTinyFTL(t, writeThroughConfig())
	mustWrite(t, eng, f, 3, 0x01)
	mustWrite(t, eng, f, 3, 0x02)
	got := mustRead(t, eng, f, 3)
	if got[0] != 0x02 {
		t.Fatalf("overwrite lost: got %x", got[0])
	}
}

func TestPageFTLLPNRange(t *testing.T) {
	eng, f := newTinyFTL(t, writeThroughConfig())
	var gotErr error
	f.WriteLPN(f.Capacity(), nil, func(err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrLPNRange) {
		t.Fatalf("out-of-range write: %v", gotErr)
	}
	f.ReadLPN(-1, func(_ []byte, err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrLPNRange) {
		t.Fatalf("out-of-range read: %v", gotErr)
	}
	if err := f.Trim(f.Capacity() + 3); !errors.Is(err, ErrLPNRange) {
		t.Fatalf("out-of-range trim: %v", err)
	}
}

func TestPageFTLWrongPayloadSize(t *testing.T) {
	eng, f := newTinyFTL(t, writeThroughConfig())
	var gotErr error
	f.WriteLPN(0, make([]byte, 10), func(err error) { gotErr = err })
	eng.Run()
	if gotErr == nil {
		t.Fatal("short payload accepted")
	}
}

func TestPageFTLTrim(t *testing.T) {
	eng, f := newTinyFTL(t, writeThroughConfig())
	mustWrite(t, eng, f, 9, 0x77)
	if err := f.Trim(9); err != nil {
		t.Fatalf("trim: %v", err)
	}
	if got := mustRead(t, eng, f, 9); got != nil {
		t.Fatal("trimmed page still readable")
	}
	if f.Stats().HostTrims != 1 {
		t.Fatal("trim not counted")
	}
}

func TestPageFTLCapacityReflectsOverProvision(t *testing.T) {
	_, f := newTinyFTL(t, writeThroughConfig())
	// 4 chips x 32 pages = 128 total, 25% OP -> 96 exported.
	if f.Capacity() != 96 {
		t.Fatalf("Capacity = %d, want 96", f.Capacity())
	}
}

func TestPageFTLGCReclaimsAndPreservesData(t *testing.T) {
	eng, f := newTinyFTL(t, writeThroughConfig())
	// A hot working set at ~80% of exported capacity (device holds 128
	// physical pages): GC must run and must relocate live pages.
	const ws = 76
	const rounds = 15
	for round := 0; round < rounds; round++ {
		for l := int64(0); l < ws; l++ {
			mustWrite(t, eng, f, l, byte(round)^byte(l))
		}
	}
	for l := int64(0); l < ws; l++ {
		got := mustRead(t, eng, f, l)
		want := byte(rounds-1) ^ byte(l)
		if got[0] != want {
			t.Fatalf("lpn %d: got %x want %x after GC churn", l, got[0], want)
		}
	}
	if f.Stats().GCErases == 0 {
		t.Fatal("no GC happened despite 40x overwrites")
	}
	if f.Stats().GCMoves == 0 {
		t.Fatal("GC never moved a valid page")
	}
}

func TestPageFTLWriteAmplificationSequentialVsRandom(t *testing.T) {
	runWA := func(random bool) float64 {
		eng, arr := tinyArray(t, 2, 2)
		f, err := NewPageFTL(arr, writeThroughConfig())
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(99)
		n := f.Capacity()
		for i := int64(0); i < 12*n; i++ {
			lpn := i % n
			if random {
				lpn = rng.Int63n(n)
			}
			f.WriteLPN(lpn, nil, func(error) {})
			eng.Run()
		}
		return WriteAmplification(f, arr)
	}
	seqWA := runWA(false)
	randWA := runWA(true)
	if seqWA < 1 || randWA < 1 {
		t.Fatalf("WA below 1: seq=%v rand=%v", seqWA, randWA)
	}
	if randWA <= seqWA {
		t.Fatalf("random WA (%v) should exceed sequential WA (%v)", randWA, seqWA)
	}
}

func TestPageFTLTrimReducesGCWork(t *testing.T) {
	run := func(trim bool) int64 {
		eng, arr := tinyArray(t, 2, 2)
		f, err := NewPageFTL(arr, writeThroughConfig())
		if err != nil {
			t.Fatal(err)
		}
		n := f.Capacity()
		for round := 0; round < 12; round++ {
			for l := int64(0); l < n*3/4; l++ {
				f.WriteLPN(l, nil, func(error) {})
				eng.Run()
				if trim && l%2 == 0 {
					// Host declares half its pages dead right after
					// writing (e.g. dropped temp tables).
					if err := f.Trim(l); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return f.Stats().GCMoves
	}
	withTrim := run(true)
	withoutTrim := run(false)
	if withTrim >= withoutTrim {
		t.Fatalf("trim should reduce GC moves: with=%d without=%d", withTrim, withoutTrim)
	}
}

func TestPageFTLStaticPlacementPinsChips(t *testing.T) {
	eng, arr := tinyArray(t, 2, 2)
	cfg := writeThroughConfig()
	cfg.Placement = PlaceStatic
	f, err := NewPageFTL(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Write lpns 0,4,8,... -> all must land on chip 0.
	for i := int64(0); i < 8; i++ {
		f.WriteLPN(i*4, nil, func(error) {})
		eng.Run()
	}
	if arr.Chip(0).Stats().Programs == 0 {
		t.Fatal("chip 0 got no programs")
	}
	for c := 1; c < 4; c++ {
		if arr.Chip(c).Stats().Programs != 0 {
			t.Fatalf("static placement leaked to chip %d", c)
		}
	}
}

func TestPageFTLDynamicPlacementStripes(t *testing.T) {
	eng, arr := tinyArray(t, 2, 2)
	f, err := NewPageFTL(arr, writeThroughConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Issue 8 concurrent writes; dynamic placement must use all chips.
	for i := int64(0); i < 8; i++ {
		f.WriteLPN(i, nil, func(error) {})
	}
	eng.Run()
	for c := 0; c < 4; c++ {
		if arr.Chip(c).Stats().Programs == 0 {
			t.Fatalf("dynamic placement left chip %d idle", c)
		}
	}
}

func TestPageFTLBufferAcksFast(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 16
	cfg.BufferSafe = true
	eng, f := newTinyFTL(t, cfg)
	var ackAt sim.Time = -1
	f.WriteLPN(0, pageData(256, 1), func(err error) {
		if err != nil {
			t.Errorf("buffered write: %v", err)
		}
		ackAt = eng.Now()
	})
	eng.RunUntil(10 * sim.Microsecond)
	if ackAt != bufferAckLatency {
		t.Fatalf("buffered write acked at %v, want %v", ackAt, bufferAckLatency)
	}
	eng.Run()
}

func TestPageFTLBufferReadHit(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 16
	eng, f := newTinyFTL(t, cfg)
	f.WriteLPN(0, pageData(256, 0x3C), func(error) {})
	var got []byte
	var readAt sim.Time
	eng.Schedule(3*sim.Microsecond, func() {
		f.ReadLPN(0, func(d []byte, err error) {
			got, readAt = d, eng.Now()
			if err != nil {
				t.Errorf("read: %v", err)
			}
		})
	})
	eng.Run()
	if got == nil || got[0] != 0x3C {
		t.Fatal("buffer read hit returned wrong data")
	}
	if readAt-3*sim.Microsecond != bufferHitLatency {
		t.Fatalf("buffer hit took %v, want %v", readAt-3*sim.Microsecond, bufferHitLatency)
	}
	if f.Stats().BufferHits != 1 {
		t.Fatal("buffer hit not counted")
	}
	eng.Run()
}

func TestPageFTLFlushDrainsBuffer(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 64
	eng, f := newTinyFTL(t, cfg)
	for i := int64(0); i < 10; i++ {
		f.WriteLPN(i, pageData(256, byte(i)), func(error) {})
	}
	flushed := false
	f.Flush(func() { flushed = true })
	eng.Run()
	if !flushed {
		t.Fatal("flush never completed")
	}
	if f.arr.PagePrograms < 10 {
		t.Fatalf("only %d programs after flush, want >= 10", f.arr.PagePrograms)
	}
	// Post-flush data still correct (now from flash, not buffer).
	for i := int64(0); i < 10; i++ {
		if got := mustRead(t, eng, f, i); got[0] != byte(i) {
			t.Fatalf("lpn %d wrong after flush", i)
		}
	}
}

func TestPageFTLBufferCoalescesOverwrites(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 64
	eng, f := newTinyFTL(t, cfg)
	for i := 0; i < 10; i++ {
		f.WriteLPN(0, pageData(256, byte(i)), func(error) {})
	}
	f.Flush(func() {})
	eng.Run()
	// 10 overwrites of one LPN should coalesce to very few programs.
	if f.arr.PagePrograms > 2 {
		t.Fatalf("%d programs for 10 coalescable writes", f.arr.PagePrograms)
	}
	if got := mustRead(t, eng, f, 0); got[0] != 9 {
		t.Fatal("coalesced value wrong")
	}
}

func TestPageFTLVolatileBufferLosesData(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 64
	cfg.BufferSafe = false
	eng, f := newTinyFTL(t, cfg)
	f.WriteLPN(1, pageData(256, 0xEE), func(error) {})
	eng.Run() // ack arrives; flush may not have started (below high water)
	lost := f.DropVolatileBuffer()
	if len(lost) == 0 {
		t.Fatal("volatile buffer reported nothing lost")
	}
	if got := mustRead(t, eng, f, 1); got != nil {
		t.Fatal("lost write still readable after crash")
	}
}

// TestVolatileCrashReportIsDeterministic: two identically seeded
// devices crashed at the same point report the same lost-LPN slice, in
// ascending order — never the write buffer's map order.
func TestVolatileCrashReportIsDeterministic(t *testing.T) {
	crash := func() []int64 {
		cfg := writeThroughConfig()
		cfg.BufferPages = 64
		cfg.BufferSafe = false
		eng, f := newTinyFTL(t, cfg)
		for i := 0; i < 40; i++ {
			f.WriteLPN(int64(i*7%53), pageData(256, byte(i)), func(error) {})
		}
		eng.RunUntil(eng.Now() + 50*sim.Microsecond) // acks in; most entries still buffered
		return f.DropVolatileBuffer()
	}
	first, second := crash(), crash()
	if len(first) < 16 {
		t.Fatalf("only %d LPNs lost; the buffer should still hold most of the burst", len(first))
	}
	if !slices.Equal(first, second) {
		t.Fatalf("identically seeded crashes disagree:\n  %v\n  %v", first, second)
	}
	if !slices.IsSorted(first) {
		t.Fatalf("lost LPNs not in ascending order: %v", first)
	}
}

func TestPageFTLSafeBufferKeepsData(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 64
	cfg.BufferSafe = true
	eng, f := newTinyFTL(t, cfg)
	f.WriteLPN(1, pageData(256, 0xEE), func(error) {})
	eng.Run()
	if lost := f.DropVolatileBuffer(); lost != nil {
		t.Fatalf("battery-backed buffer lost %v", lost)
	}
	if got := mustRead(t, eng, f, 1); got == nil || got[0] != 0xEE {
		t.Fatal("data missing after crash with safe buffer")
	}
}

func TestPageFTLNamelessWriteAndRelocation(t *testing.T) {
	eng, f := newTinyFTL(t, writeThroughConfig())
	// Track relocations like the host side of the co-design interface.
	current := make(map[PPA]PPA) // original -> current
	f.SetRelocationNotifier(func(old, new PPA) {
		for orig, cur := range current {
			if cur == old {
				current[orig] = new
			}
		}
	})
	var token PPA = InvalidPPA
	f.WriteNameless(pageData(256, 0x42), func(ppa PPA, err error) {
		if err != nil {
			t.Errorf("nameless write: %v", err)
		}
		token = ppa
	})
	eng.Run()
	if token == InvalidPPA {
		t.Fatal("no PPA returned")
	}
	current[token] = token
	// Churn the device so GC relocates the nameless page eventually.
	for round := 0; round < 60; round++ {
		for l := int64(0); l < 20; l++ {
			f.WriteLPN(l, nil, func(error) {})
			eng.Run()
		}
	}
	var got []byte
	f.ReadPhys(current[token], func(d []byte, err error) {
		if err != nil {
			t.Errorf("ReadPhys: %v", err)
		}
		got = d
	})
	eng.Run()
	if got == nil || got[0] != 0x42 {
		t.Fatal("nameless page unreadable after churn")
	}
	if err := f.TrimPhys(current[token]); err != nil {
		t.Fatalf("TrimPhys: %v", err)
	}
}

func TestPageFTLSurvivesWornChips(t *testing.T) {
	// Rated for only 30 cycles: grown bad blocks guaranteed; the FTL
	// must keep data correct while retiring blocks.
	eng := sim.NewEngine()
	spec := tinySpec()
	spec.Reliability = nand.Reliability{RatedCycles: 30}
	arr, err := NewArray(eng, ArrayConfig{
		Channels: 2, ChipsPerChannel: 2,
		Chip:    spec,
		Channel: bus.Config{MBPerSec: 200, CmdOverhead: sim.Microsecond},
	}, 77)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewPageFTL(arr, writeThroughConfig())
	if err != nil {
		t.Fatal(err)
	}
	const ws = 16
	for round := 0; round < 80; round++ {
		for l := int64(0); l < ws; l++ {
			var werr error
			f.WriteLPN(l, pageData(256, byte(round)), func(err error) { werr = err })
			eng.Run()
			if werr != nil {
				// Device legitimately full of bad blocks; stop writing.
				t.Skipf("device wore out entirely at round %d: %v", round, werr)
			}
		}
	}
	for l := int64(0); l < ws; l++ {
		got := mustRead(t, eng, f, l)
		if got == nil || got[0] != 79 {
			t.Fatalf("lpn %d corrupted on worn device", l)
		}
	}
}

func TestWriteAmplificationHelper(t *testing.T) {
	eng, arr := tinyArray(t, 1, 1)
	f, err := NewPageFTL(arr, writeThroughConfig())
	if err != nil {
		t.Fatal(err)
	}
	if WriteAmplification(f, arr) != 0 {
		t.Fatal("WA with no writes should be 0")
	}
	f.WriteLPN(0, nil, func(error) {})
	eng.Run()
	if got := WriteAmplification(f, arr); got != 1 {
		t.Fatalf("WA after one write = %v, want 1", got)
	}
}

// Property: a random mix of writes, overwrites and trims behaves like a
// map, even across forced GC churn, in both buffered and write-through
// configurations.
func TestPropertyPageFTLMatchesModel(t *testing.T) {
	run := func(ops []uint16, buffered bool) bool {
		eng, arr := tinyArray(t, 2, 2)
		cfg := writeThroughConfig()
		if buffered {
			cfg.BufferPages = 8
		}
		f, err := NewPageFTL(arr, cfg)
		if err != nil {
			return false
		}
		model := map[int64]byte{}
		n := f.Capacity()
		for _, op := range ops {
			lpn := int64(op%uint16(n)) % n
			switch {
			case op%5 == 4: // trim
				if f.Trim(lpn) != nil {
					return false
				}
				delete(model, lpn)
			default:
				fill := byte(op >> 8)
				ok := true
				f.WriteLPN(lpn, pageData(256, fill), func(err error) { ok = err == nil })
				eng.Run()
				if !ok {
					return false
				}
				model[lpn] = fill
			}
		}
		fdone := false
		f.Flush(func() { fdone = true })
		eng.Run()
		if !fdone {
			return false
		}
		for lpn := int64(0); lpn < n; lpn++ {
			var got []byte
			var gerr error
			f.ReadLPN(lpn, func(d []byte, err error) { got, gerr = d, err })
			eng.Run()
			if gerr != nil {
				return false
			}
			want, ok := model[lpn]
			if !ok {
				if got != nil {
					return false
				}
				continue
			}
			if got == nil || got[0] != want {
				return false
			}
		}
		return true
	}
	f1 := func(ops []uint16) bool { return run(ops, false) }
	f2 := func(ops []uint16) bool { return run(ops, true) }
	if err := quick.Check(f1, &quick.Config{MaxCount: 25}); err != nil {
		t.Errorf("write-through: %v", err)
	}
	if err := quick.Check(f2, &quick.Config{MaxCount: 25}); err != nil {
		t.Errorf("buffered: %v", err)
	}
}
