package nand

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// testSpec is a tiny chip for fast tests, with reliability disabled by
// passing a nil RNG where determinism of content matters.
func testSpec() Spec {
	return Spec{
		Name: "test",
		Geometry: Geometry{
			PageSize: 512, OOBSize: 16, PagesPerBlock: 4,
			BlocksPerPlane: 8, PlanesPerLUN: 2, LUNsPerChip: 2,
		},
		Timing: Timing{
			ReadPage:    50 * sim.Microsecond,
			ProgramPage: 600 * sim.Microsecond,
			EraseBlock:  3 * sim.Millisecond,
		},
		Reliability: Reliability{RatedCycles: 100, BaseBER: 0, BERGrowth: 0, FactoryBadBlockRate: 0},
	}
}

func newTestChip(t *testing.T) (*sim.Engine, *Chip) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := NewChip(eng, testSpec(), nil, "chip0")
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	return eng, c
}

func page512(fill byte) []byte {
	d := make([]byte, 512)
	for i := range d {
		d[i] = fill
	}
	return d
}

func TestGeometryValidate(t *testing.T) {
	good := testSpec().Geometry
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := good
	bad.PageSize = 0
	if bad.Validate() == nil {
		t.Error("zero PageSize accepted")
	}
	bad = good
	bad.OOBSize = -1
	if bad.Validate() == nil {
		t.Error("negative OOBSize accepted")
	}
	bad.OOBSize = 1 << 16
	if bad.Validate() == nil {
		t.Error("OOBSize past the 16-bit spare-area length accepted")
	}
	bad = good
	bad.LUNsPerChip = 0
	if bad.Validate() == nil {
		t.Error("zero LUNs accepted")
	}
}

func TestGeometryDerived(t *testing.T) {
	g := testSpec().Geometry
	if g.BlocksPerLUN() != 16 {
		t.Errorf("BlocksPerLUN = %d, want 16", g.BlocksPerLUN())
	}
	if g.PagesPerLUN() != 64 {
		t.Errorf("PagesPerLUN = %d, want 64", g.PagesPerLUN())
	}
	if g.PagesPerChip() != 128 {
		t.Errorf("PagesPerChip = %d, want 128", g.PagesPerChip())
	}
	if g.BlocksPerChip() != 32 {
		t.Errorf("BlocksPerChip = %d, want 32", g.BlocksPerChip())
	}
}

func TestAddrStrings(t *testing.T) {
	a := Addr{LUN: 1, Plane: 0, Block: 3, Page: 2}
	if a.String() != "lun1/pl0/blk3/pg2" {
		t.Errorf("Addr.String = %q", a.String())
	}
	if a.BlockAddr().String() != "lun1/pl0/blk3" {
		t.Errorf("BlockAddr.String = %q", a.BlockAddr().String())
	}
}

func TestProgramThenReadRoundTrip(t *testing.T) {
	eng, c := newTestChip(t)
	a := Addr{LUN: 0, Plane: 0, Block: 0, Page: 0}
	want := page512(0xAB)
	oob := []byte("meta")
	var got ReadResult
	if err := c.Program(a, want, oob, func(ok bool) {
		if !ok {
			t.Error("program failed")
		}
		if err := c.Read(a, func(r ReadResult, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = r
		}); err != nil {
			t.Fatalf("Read: %v", err)
		}
	}); err != nil {
		t.Fatalf("Program: %v", err)
	}
	eng.Run()
	if !bytes.Equal(got.Data, want) {
		t.Fatal("read data differs from programmed data")
	}
	if !bytes.Equal(got.OOB, oob) {
		t.Fatalf("OOB = %q, want %q", got.OOB, oob)
	}
}

// readData runs one read of a to completion and returns its payload.
func readData(t *testing.T, eng *sim.Engine, c *Chip, a Addr) []byte {
	t.Helper()
	var got []byte
	if err := c.Read(a, func(r ReadResult, err error) {
		if err != nil {
			t.Errorf("read %v: %v", a, err)
		}
		got = r.Data
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return got
}

// A read hands out the page's payload itself: two reads of one page
// return the same backing array, and no read copies it.
func TestReadSharesPayload(t *testing.T) {
	eng, c := newTestChip(t)
	a := Addr{}
	c.Program(a, page512(0x11), nil, func(bool) {})
	eng.Run()
	first, second := readData(t, eng, c, a), readData(t, eng, c, a)
	if len(first) != 512 || &first[0] != &second[0] {
		t.Fatal("two reads of one page returned different buffers: the read copied the payload")
	}
}

// A program keeps the buffer it is handed, and erase drops it instead of
// writing it: a slice a reader took before the erase still holds the old
// bytes after the block is erased and the page reprogrammed.
func TestProgramTakesPayload(t *testing.T) {
	eng, c := newTestChip(t)
	a := Addr{}
	buf := page512(0x22)
	c.Program(a, buf, nil, func(bool) {})
	eng.Run()
	old := readData(t, eng, c, a)
	if &old[0] != &buf[0] {
		t.Fatal("the chip copied the programmed payload instead of keeping it")
	}
	erase(c, a.BlockAddr(), func(ok bool) {
		if !ok {
			t.Error("erase failed")
		}
	})
	eng.Run()
	c.Program(a, page512(0x33), nil, func(bool) {})
	eng.Run()
	if got := readData(t, eng, c, a); got[0] != 0x33 {
		t.Fatalf("reprogrammed page reads %#x, want 0x33", got[0])
	}
	if !bytes.Equal(old, page512(0x22)) {
		t.Fatal("erase or reprogram wrote the buffer an earlier read handed out")
	}
}

func TestC1PageSizeEnforced(t *testing.T) {
	_, c := newTestChip(t)
	err := c.Program(Addr{}, make([]byte, 100), nil, func(bool) {})
	if !errors.Is(err, ErrPageSize) {
		t.Fatalf("short payload: err = %v, want ErrPageSize", err)
	}
}

func TestC2EraseBeforeRewrite(t *testing.T) {
	eng, c := newTestChip(t)
	a := Addr{}
	c.Program(a, nil, nil, func(bool) {})
	eng.Run()
	err := c.Program(a, nil, nil, func(bool) {})
	if !errors.Is(err, ErrPageProgrammed) {
		t.Fatalf("rewrite without erase: err = %v, want ErrPageProgrammed", err)
	}
	// After erase the page is writable again.
	erase(c, a.BlockAddr(), func(ok bool) {
		if !ok {
			t.Error("erase failed")
		}
	})
	eng.Run()
	if err := c.Program(a, nil, nil, func(bool) {}); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
	eng.Run()
}

func TestC3SequentialWithinBlock(t *testing.T) {
	eng, c := newTestChip(t)
	// Page 1 before page 0 must be rejected.
	err := c.Program(Addr{Page: 1}, nil, nil, func(bool) {})
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order program: err = %v, want ErrOutOfOrder", err)
	}
	// 0,1,2,3 in order is fine.
	for p := 0; p < 4; p++ {
		if err := c.Program(Addr{Page: p}, nil, nil, func(bool) {}); err != nil {
			t.Fatalf("sequential program page %d: %v", p, err)
		}
	}
	eng.Run()
}

func TestC4WearFailuresPastRating(t *testing.T) {
	eng := sim.NewEngine()
	spec := testSpec()
	spec.Reliability.RatedCycles = 10
	c, err := NewChip(eng, spec, sim.NewRNG(7), "worn")
	if err != nil {
		t.Fatal(err)
	}
	b := BlockAddr{}
	fails := 0
	// Hammer the block far past its rating; failures must appear.
	for i := 0; i < 400; i++ {
		if c.IsBad(b) {
			break
		}
		err := erase(c, b, func(ok bool) {
			if !ok {
				fails++
			}
		})
		if err != nil {
			break
		}
		eng.Run()
	}
	if fails == 0 {
		t.Fatal("no wear-induced erase failures after 40x rated cycles")
	}
	if !c.IsBad(b) {
		t.Fatal("block not marked bad after erase failure")
	}
}

func TestReadOfErasedPageFails(t *testing.T) {
	eng, c := newTestChip(t)
	var gotErr error
	c.Read(Addr{}, func(_ ReadResult, err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrNotProgrammed) {
		t.Fatalf("read of erased page: err = %v, want ErrNotProgrammed", gotErr)
	}
}

func TestBadAddressRejected(t *testing.T) {
	_, c := newTestChip(t)
	cases := []Addr{
		{LUN: 2}, {Plane: 2}, {Block: 8}, {Page: 4}, {LUN: -1},
	}
	for _, a := range cases {
		if err := c.Read(a, nil); !errors.Is(err, ErrBadAddress) {
			t.Errorf("Read(%v): err = %v, want ErrBadAddress", a, err)
		}
	}
}

func TestOOBTooLargeRejected(t *testing.T) {
	_, c := newTestChip(t)
	err := c.Program(Addr{}, nil, make([]byte, 17), func(bool) {})
	if !errors.Is(err, ErrOOBSize) {
		t.Fatalf("oversized OOB: err = %v, want ErrOOBSize", err)
	}
}

func TestTimingReadVsProgramVsErase(t *testing.T) {
	eng, c := newTestChip(t)
	var readDone, progDone, eraseDone sim.Time
	c.Program(Addr{}, nil, nil, func(bool) { progDone = eng.Now() })
	eng.Run()
	c.Read(Addr{}, func(ReadResult, error) { readDone = eng.Now() })
	eng.Run()
	erase(c, BlockAddr{Plane: 1}, func(bool) { eraseDone = eng.Now() })
	eng.Run()
	if progDone != 600*sim.Microsecond {
		t.Errorf("program completed at %v, want 600µs", progDone)
	}
	if readDone != progDone+50*sim.Microsecond {
		t.Errorf("read completed at %v, want prog+50µs", readDone)
	}
	if eraseDone != readDone+3*sim.Millisecond {
		t.Errorf("erase completed at %v, want read+3ms", eraseDone)
	}
}

func TestLUNSerializationAndParallelism(t *testing.T) {
	eng, c := newTestChip(t)
	// Two programs to the same LUN serialize; a program to another LUN
	// overlaps.
	var sameLUN, otherLUN sim.Time
	c.Program(Addr{LUN: 0, Block: 0}, nil, nil, func(bool) {})
	c.Program(Addr{LUN: 0, Block: 1}, nil, nil, func(bool) { sameLUN = eng.Now() })
	c.Program(Addr{LUN: 1, Block: 0}, nil, nil, func(bool) { otherLUN = eng.Now() })
	eng.Run()
	if sameLUN != 1200*sim.Microsecond {
		t.Errorf("same-LUN second program at %v, want 1200µs (serialized)", sameLUN)
	}
	if otherLUN != 600*sim.Microsecond {
		t.Errorf("other-LUN program at %v, want 600µs (parallel)", otherLUN)
	}
}

func TestEraseResetsSequentialCursor(t *testing.T) {
	eng, c := newTestChip(t)
	for p := 0; p < 4; p++ {
		c.Program(Addr{Page: p}, nil, nil, func(bool) {})
	}
	eng.Run()
	erase(c, BlockAddr{}, func(bool) {})
	eng.Run()
	if err := c.Program(Addr{Page: 0}, nil, nil, func(bool) {}); err != nil {
		t.Fatalf("program page 0 after erase: %v", err)
	}
	eng.Run()
	if programmed(c, Addr{Page: 1}) {
		t.Fatal("page 1 should be erased")
	}
}

func TestCopyBack(t *testing.T) {
	eng, c := newTestChip(t)
	src := Addr{Block: 0, Page: 0}
	dst := Addr{Block: 1, Page: 0}
	want := page512(0x5A)
	c.Program(src, want, []byte("m"), func(bool) {})
	eng.Run()
	var done sim.Time
	if err := c.CopyBack(src, dst, func(ok bool) {
		if !ok {
			t.Error("copyback failed")
		}
		done = eng.Now()
	}); err != nil {
		t.Fatalf("CopyBack: %v", err)
	}
	eng.Run()
	if done != 600*sim.Microsecond+50*sim.Microsecond+600*sim.Microsecond {
		t.Errorf("copyback completed at %v", done)
	}
	var got ReadResult
	c.Read(dst, func(r ReadResult, _ error) { got = r })
	eng.Run()
	if !bytes.Equal(got.Data, want) || !bytes.Equal(got.OOB, []byte("m")) {
		t.Fatal("copyback did not preserve data+OOB")
	}
}

func TestCopyBackCrossPlaneRejected(t *testing.T) {
	eng, c := newTestChip(t)
	c.Program(Addr{}, nil, nil, func(bool) {})
	eng.Run()
	err := c.CopyBack(Addr{}, Addr{Plane: 1}, func(bool) {})
	if err == nil {
		t.Fatal("cross-plane copyback accepted")
	}
}

func TestBadBlockRejectsOps(t *testing.T) {
	eng, c := newTestChip(t)
	// Program a page first so the salvage read below has data.
	c.Program(Addr{Block: 2}, page512(0x42), nil, func(bool) {})
	eng.Run()
	b := BlockAddr{Block: 2}
	c.MarkBad(b)
	if err := c.Program(Addr{Block: 2, Page: 1}, nil, nil, func(bool) {}); !errors.Is(err, ErrBadBlock) {
		t.Errorf("program to bad block: %v", err)
	}
	if err := erase(c, b, func(bool) {}); !errors.Is(err, ErrBadBlock) {
		t.Errorf("erase of bad block: %v", err)
	}
	// Reads of bad blocks are allowed: controllers salvage live data.
	var got []byte
	if err := c.Read(Addr{Block: 2}, func(r ReadResult, err error) {
		if err == nil {
			got = r.Data
		}
	}); err != nil {
		t.Errorf("salvage read of bad block rejected: %v", err)
	}
	eng.Run()
	if len(got) == 0 || got[0] != 0x42 {
		t.Error("salvage read did not return data")
	}
}

func TestFactoryBadBlocks(t *testing.T) {
	eng := sim.NewEngine()
	spec := testSpec()
	spec.Reliability.FactoryBadBlockRate = 0.5
	c, err := NewChip(eng, spec, sim.NewRNG(3), "factory")
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	g := spec.Geometry
	for l := 0; l < g.LUNsPerChip; l++ {
		for p := 0; p < g.PlanesPerLUN; p++ {
			for b := 0; b < g.BlocksPerPlane; b++ {
				if c.IsBad(BlockAddr{LUN: l, Plane: p, Block: b}) {
					bad++
				}
			}
		}
	}
	if bad < 5 || bad > 27 {
		t.Fatalf("factory bad blocks = %d of 32 at 50%% rate", bad)
	}
}

func TestStatsCount(t *testing.T) {
	eng, c := newTestChip(t)
	c.Program(Addr{}, nil, nil, func(bool) {})
	eng.Run()
	c.Read(Addr{}, func(ReadResult, error) {})
	c.Read(Addr{}, func(ReadResult, error) {})
	eng.Run()
	erase(c, BlockAddr{Plane: 1}, func(bool) {})
	eng.Run()
	s := c.Stats()
	if s.Programs != 1 || s.Reads != 2 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBitErrorsGrowWithWear(t *testing.T) {
	eng := sim.NewEngine()
	spec := testSpec()
	spec.Reliability = Reliability{RatedCycles: 100, BaseBER: 1e-5, BERGrowth: 500}
	c, err := NewChip(eng, spec, sim.NewRNG(11), "wearber")
	if err != nil {
		t.Fatal(err)
	}
	sumFresh, sumWorn := 0, 0
	// Fresh block reads.
	a := Addr{}
	c.Program(a, nil, nil, func(bool) {})
	eng.Run()
	for i := 0; i < 200; i++ {
		c.Read(a, func(r ReadResult, _ error) { sumFresh += r.BitErrors })
		eng.Run()
	}
	// Wear the block to its rating, then read again.
	for i := 0; i < 100; i++ {
		erase(c, a.BlockAddr(), func(bool) {})
		eng.Run()
	}
	c.Program(a, nil, nil, func(bool) {})
	eng.Run()
	for i := 0; i < 200; i++ {
		c.Read(a, func(r ReadResult, _ error) { sumWorn += r.BitErrors })
		eng.Run()
	}
	if sumWorn <= sumFresh {
		t.Fatalf("bit errors did not grow with wear: fresh=%d worn=%d", sumFresh, sumWorn)
	}
}

// Property: under any sequence of (block, fill) writes done in valid
// order, a read of each written page returns the last value written
// since the preceding erase.
func TestPropertyReadYourWrites(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := sim.NewEngine()
		c, err := NewChip(eng, testSpec(), nil, "prop")
		if err != nil {
			return false
		}
		// model[block][page] = fill byte written, or -1 for erased
		type key struct{ blk, pg int }
		model := map[key]int{}
		cursor := map[int]int{} // block -> next page
		for _, op := range ops {
			blk := int(op % 8)
			fill := byte(op)
			pg, okPg := cursor[blk]
			if !okPg {
				pg = 0
			}
			if pg >= 4 {
				// Block full: erase it.
				erase(c, BlockAddr{Block: blk}, func(ok bool) {})
				eng.Run()
				for p := 0; p < 4; p++ {
					delete(model, key{blk, p})
				}
				cursor[blk] = 0
				pg = 0
			}
			a := Addr{Block: blk, Page: pg}
			if err := c.Program(a, page512(fill), nil, func(bool) {}); err != nil {
				return false
			}
			eng.Run()
			model[key{blk, pg}] = int(fill)
			cursor[blk] = pg + 1
		}
		// Verify all modeled pages.
		for k, fill := range model {
			var got []byte
			c.Read(Addr{Block: k.blk, Page: k.pg}, func(r ReadResult, err error) {
				if err == nil {
					got = r.Data
				}
			})
			eng.Run()
			if got == nil || got[0] != byte(fill) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// erase starts a block erase at the current instant.
func erase(c *Chip, b BlockAddr, done func(ok bool)) error {
	return c.EraseFrom(c.eng.Now(), b, done)
}

// programmed reports whether the page at a holds a programmed state.
func programmed(c *Chip, a Addr) bool { return c.flags[c.pageIndex(a)]&pageProgrammed != 0 }
