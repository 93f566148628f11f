package nand

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// programAll programs every page of c in order, a block's pages at a
// time, each with data and an 8-byte spare area (an FTL's LPN tag).
func programAll(eng *sim.Engine, c *Chip, data []byte) error {
	g := c.Geometry()
	oob := make([]byte, 8)
	a := Addr{}
	for a.LUN = 0; a.LUN < g.LUNsPerChip; a.LUN++ {
		for a.Plane = 0; a.Plane < g.PlanesPerLUN; a.Plane++ {
			for a.Block = 0; a.Block < g.BlocksPerPlane; a.Block++ {
				for a.Page = 0; a.Page < g.PagesPerBlock; a.Page++ {
					if err := c.Program(a, data, oob, func(bool) {}); err != nil {
						return err
					}
				}
				eng.Run()
			}
		}
	}
	return nil
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// What the simulator's host keeps per simulated page: the heap a
// default-geometry chip holds once every page is programmed, from before
// the chip is built, per page. Without payloads a page costs its flags
// byte and its spare area; with them, a payload slot more (the one
// payload buffer every program shares is allocated before the count
// starts, so no payload byte is counted).
func TestChipHostBytesPerPage(t *testing.T) {
	spec := MLC
	pages := spec.Geometry.PagesPerChip()
	for _, tc := range []struct {
		name    string
		payload []byte
		max     float64
	}{
		{"no payload", nil, 16},
		{"payloads", make([]byte, spec.Geometry.PageSize), 40},
	} {
		before := liveHeap()
		eng := sim.NewEngine()
		c, err := NewChip(eng, spec, nil, "chip0")
		if err != nil {
			t.Fatal(err)
		}
		if err := programAll(eng, c, tc.payload); err != nil {
			t.Fatal(err)
		}
		after := liveHeap()
		runtime.KeepAlive(c)
		runtime.KeepAlive(tc.payload)
		perPage := (float64(after) - float64(before)) / float64(pages)
		t.Logf("%s: %.1f host bytes per page over %d pages", tc.name, perPage, pages)
		if perPage > tc.max {
			t.Errorf("%s: %.1f host bytes per programmed page, want <= %.0f", tc.name, perPage, tc.max)
		}
	}
}

// A page's spare area reads back exactly as last programmed — bytes and
// length — through program, read, copyback, erase and reprogram, with
// each length following a longer one, and across the growth of the
// chip's spare-area slab: a page programmed before a longer spare area
// arrived still reads its own, and a slice read before the growth keeps
// its bytes.
func TestOOBRoundTrip(t *testing.T) {
	eng, c := newTestChip(t)
	full := c.Geometry().OOBSize
	src, dst, keep := Addr{Block: 0}, Addr{Block: 1}, Addr{Block: 2}
	read := func(a Addr) []byte {
		t.Helper()
		var got []byte
		c.Read(a, func(r ReadResult, err error) {
			if err != nil {
				t.Errorf("read %v: %v", a, err)
			}
			got = r.OOB
		})
		eng.Run()
		return got
	}
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

	kept := fill(8, 0xEE)
	if err := c.Program(keep, nil, kept, func(bool) {}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	early := read(keep)
	for round, n := range []int{0, 8, full, 8, 0, full, 0} {
		want := fill(n, byte(round+1))
		for _, b := range []BlockAddr{src.BlockAddr(), dst.BlockAddr()} {
			c.Erase(b, func(bool) {})
		}
		eng.Run()
		err := c.Read(src, func(_ ReadResult, err error) {
			if !errors.Is(err, ErrNotProgrammed) {
				t.Errorf("round %d: read of an erased page: err = %v, want ErrNotProgrammed", round, err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if err := c.Program(src, nil, want, func(bool) {}); err != nil {
			t.Fatalf("round %d: program: %v", round, err)
		}
		eng.Run()
		if got := read(src); !bytes.Equal(got, want) || len(got) != n {
			t.Fatalf("round %d: programmed page's OOB = %x (len %d), want %x", round, got, len(got), want)
		}
		if err := c.CopyBack(src, dst, func(bool) {}); err != nil {
			t.Fatalf("round %d: copyback: %v", round, err)
		}
		eng.Run()
		if got := read(dst); !bytes.Equal(got, want) || len(got) != n {
			t.Fatalf("round %d: copyback destination's OOB = %x (len %d), want %x", round, got, len(got), want)
		}
		if got := read(src); !bytes.Equal(got, want) {
			t.Fatalf("round %d: copyback source's OOB = %x after the copy, want %x", round, got, want)
		}
		if got := read(keep); !bytes.Equal(got, kept) {
			t.Fatalf("round %d: untouched page's OOB = %x, want %x", round, got, kept)
		}
	}
	if !bytes.Equal(early, kept) {
		t.Fatalf("a spare area read before the slab grew changed to %x", early)
	}
}

// BenchmarkChipRandomRead reads uniformly random pages of a programmed
// default-geometry chip, 64 reads in flight per engine run: the cost of
// the chip's per-page state on the read path.
func BenchmarkChipRandomRead(b *testing.B) {
	eng := sim.NewEngine()
	c, err := NewChip(eng, MLC, nil, "chip0")
	if err != nil {
		b.Fatal(err)
	}
	g := c.Geometry()
	if err := programAll(eng, c, make([]byte, g.PageSize)); err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	done := func(_ ReadResult, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Addr{
			LUN:   rng.Intn(g.LUNsPerChip),
			Plane: rng.Intn(g.PlanesPerLUN),
			Block: rng.Intn(g.BlocksPerPlane),
			Page:  rng.Intn(g.PagesPerBlock),
		}
		if err := c.Read(a, done); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}
