package ftl

import (
	"bytes"
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

// payloadPages counts the pages holding a payload on every chip of arr.
func payloadPages(arr *Array) int {
	n := 0
	for i := 0; i < arr.Chips(); i++ {
		n += arr.Chip(i).PayloadPages()
	}
	return n
}

// livePages counts the physical pages the reverse map holds live.
func livePages(f *PageFTL) int {
	n := 0
	for _, owner := range f.rmap {
		if owner != rmapDead {
			n++
		}
	}
	return n
}

// A page's payload lives from its program until the FTL kills the page.
// Four logical spans of seeded overwrites, trims, nameless writes and
// their trims run at queue depth 8, so host writes race GC copies; after
// each span drains, the chips hold a payload for exactly the pages the
// map holds live (mapped and nameless), and every page reads back what
// was last written to it.
func TestChipPayloadsAreTheLivePages(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		name := "unbuffered"
		if buffered {
			name = "buffered"
		}
		t.Run(name, func(t *testing.T) {
			eng, arr := tinyArray(t, 2, 2)
			cfg := writeThroughConfig()
			cfg.staticWearThreshold = 4
			if buffered {
				cfg.BufferPages = 8
			}
			f, err := NewPageFTL(arr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			model := map[int64]byte{}   // lpn -> fill of the last write
			writing := map[int64]bool{} // lpns with a write in flight
			nameless := map[PPA]byte{}  // current ppa -> fill
			f.SetRelocationNotifier(func(old, new PPA) {
				nameless[new] = nameless[old]
				delete(nameless, old)
			})
			rng := sim.NewRNG(5)
			span := f.Capacity() * 3 / 4
			const depth = 8
			left := 0
			var next func()
			next = func() {
				if left == 0 {
					return
				}
				left--
				fill := byte(rng.Uint64())
				// Like a host, never keep two commands on one LPN in flight:
				// a write parked for space may land after a later one.
				lpn := rng.Int63n(span)
				for writing[lpn] {
					lpn = rng.Int63n(span)
				}
				switch r := rng.Float64(); {
				case r < 0.75:
					model[lpn], writing[lpn] = fill, true
					f.WriteLPN(lpn, pageData(f.PageSize(), fill), func(err error) {
						if err != nil {
							t.Errorf("write: %v", err)
						}
						delete(writing, lpn)
						next()
					})
				case r < 0.88:
					delete(model, lpn)
					if err := f.Trim(lpn); err != nil {
						t.Fatal(err)
					}
					eng.After(sim.Microsecond, next)
				case len(nameless) < 4:
					f.WriteNameless(pageData(f.PageSize(), fill), func(p PPA, err error) {
						if err != nil {
							t.Errorf("nameless write: %v", err)
						}
						nameless[p] = fill
						next()
					})
				default:
					for p := range nameless {
						delete(nameless, p)
						if err := f.TrimPhys(p); err != nil {
							t.Fatal(err)
						}
						break
					}
					eng.After(sim.Microsecond, next)
				}
			}
			for round := 0; round < 4; round++ {
				left = int(f.Capacity())
				for i := 0; i < depth; i++ {
					next()
				}
				eng.Run()
				if got, want := payloadPages(arr), livePages(f); got != want {
					t.Fatalf("span %d: chips hold %d payloads, the map %d live pages: a dead page kept its payload", round, got, want)
				}
			}
			if f.Stats().GCMoves == 0 || f.Stats().GCErases == 0 {
				t.Fatalf("no GC ran: %+v", f.Stats())
			}
			for lpn := int64(0); lpn < span; lpn++ {
				got := mustRead(t, eng, f, lpn)
				if want, ok := model[lpn]; ok != (got != nil) || ok && !bytes.Equal(got, pageData(f.PageSize(), want)) {
					t.Fatalf("lpn %d reads %d bytes, want the page written last (%v)", lpn, len(got), ok)
				}
			}
			for p, fill := range nameless {
				var got []byte
				f.ReadPhys(p, func(d []byte, err error) {
					if err != nil {
						t.Errorf("ReadPhys %d: %v", p, err)
					}
					got = d
				})
				eng.Run()
				if !bytes.Equal(got, pageData(f.PageSize(), fill)) {
					t.Fatalf("nameless page at %d lost its bytes", p)
				}
			}
		})
	}
}

// A host read in flight when its LPN is overwritten returns the bytes it
// was issued against, although the overwrite drops them from the chip at
// once.
func TestReadInFlightAcrossOverwrite(t *testing.T) {
	eng, f := newTinyFTL(t, writeThroughConfig())
	mustWrite(t, eng, f, 3, 0x11)
	var got []byte
	f.ReadLPN(3, func(d []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = d
	})
	f.WriteLPN(3, pageData(256, 0x22), func(err error) {
		if err != nil {
			t.Errorf("overwrite: %v", err)
		}
	})
	if n := payloadPages(f.arr); n != 1 {
		t.Fatalf("%d pages hold a payload right after the overwrite, want 1: the old page outlived its death", n)
	}
	eng.Run()
	if !bytes.Equal(got, pageData(256, 0x11)) {
		t.Fatalf("the read in flight across the overwrite returned %d bytes, want the old 0x11 page", len(got))
	}
	if got := mustRead(t, eng, f, 3); !bytes.Equal(got, pageData(256, 0x22)) {
		t.Fatal("a read after the overwrite does not return the new page")
	}
}

// A retired block is never erased, so the moves that evacuate it are
// what drop its pages' payloads: afterwards only the moved copies hold
// one, and they read back.
func TestRetiredBlockKeepsNoPayload(t *testing.T) {
	eng, arr := tinyArray(t, 1, 1)
	f, err := NewPageFTL(arr, writeThroughConfig())
	if err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 4; lpn++ {
		mustWrite(t, eng, f, lpn, byte(0x30+lpn))
	}
	victim := arr.BlockOf(f.lookup(0))
	if f.blocks[victim].valid != 4 {
		t.Fatalf("block %d holds %d of lpns 0-3, want all 4", victim, f.blocks[victim].valid)
	}
	f.retireBlock(0, victim)
	eng.Run()
	if n := payloadPages(arr); n != 4 {
		t.Fatalf("%d pages hold a payload after the retired block's evacuation, want the 4 moved copies", n)
	}
	for lpn := int64(0); lpn < 4; lpn++ {
		if arr.BlockOf(f.lookup(lpn)) == victim {
			t.Fatalf("lpn %d still maps into the retired block", lpn)
		}
		if got := mustRead(t, eng, f, lpn); !bytes.Equal(got, pageData(256, byte(0x30+lpn))) {
			t.Fatalf("lpn %d lost its bytes in the move", lpn)
		}
	}
}

// A program that fails leaves a page nothing maps: the FTL kills it as
// it relocates the write, so a dead die ends up holding no payload.
func TestFailedProgramKeepsNoPayload(t *testing.T) {
	eng, arr := tinyArray(t, 1, 2)
	f, err := NewPageFTL(arr, writeThroughConfig())
	if err != nil {
		t.Fatal(err)
	}
	arr.Chip(1).Fail()
	for lpn := int64(0); lpn < 4; lpn++ {
		mustWrite(t, eng, f, lpn, byte(0x50+lpn))
	}
	if arr.Chip(1).Stats().ProgramFails == 0 {
		t.Fatal("no write reached the failed chip")
	}
	if got, want := payloadPages(arr), livePages(f); got != want || arr.Chip(1).PayloadPages() != 0 {
		t.Fatalf("chips hold %d payloads (%d on the dead die), the map %d live pages", got, arr.Chip(1).PayloadPages(), want)
	}
	for lpn := int64(0); lpn < 4; lpn++ {
		if got := mustRead(t, eng, f, lpn); !bytes.Equal(got, pageData(256, byte(0x50+lpn))) {
			t.Fatalf("lpn %d does not read back what was written", lpn)
		}
	}
}

// A cross-plane GC copy whose source a host overwrite kills while the
// copy is in flight programs a dead destination: the new bytes stay the
// readable ones, and neither the source nor the destination keeps a
// payload.
func TestCrossPlaneCopyRacingOverwrite(t *testing.T) {
	eng := sim.NewEngine()
	spec := tinySpec()
	spec.Geometry.PlanesPerLUN = 2
	arr, err := NewArray(eng, ArrayConfig{
		Channels: 1, ChipsPerChannel: 1, Chip: spec,
		Channel: bus.Config{MBPerSec: 200, CmdOverhead: sim.Microsecond},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewPageFTL(arr, writeThroughConfig())
	if err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 4; lpn++ {
		mustWrite(t, eng, f, lpn, byte(0x10+lpn))
	}
	victim := arr.BlockOf(f.lookup(0))
	if f.blocks[victim].state != blockFull {
		t.Fatalf("block %d holding lpns 0-3 is not full", victim)
	}
	// The victim is plane 0's first block and the GC frontier opens on
	// plane 1, so the first move — lpn 0 — reads across the channel now.
	f.evacuate(0, victim, thenGC)
	f.WriteLPN(0, pageData(256, 0x99), func(err error) {
		if err != nil {
			t.Errorf("overwrite: %v", err)
		}
	})
	eng.Run()
	if arr.CopyBacks != 0 || f.Stats().GCMoves != 4 {
		t.Fatalf("%d copybacks, %d GC moves: want 4 cross-plane moves", arr.CopyBacks, f.Stats().GCMoves)
	}
	for lpn := int64(0); lpn < 4; lpn++ {
		want := byte(0x10 + lpn)
		if lpn == 0 {
			want = 0x99
		}
		if got := mustRead(t, eng, f, lpn); !bytes.Equal(got, pageData(256, want)) {
			t.Fatalf("lpn %d does not read back %#x", lpn, want)
		}
	}
	if n := payloadPages(arr); n != 4 {
		t.Fatalf("%d pages hold a payload, want the 4 live ones: the copy's dead destination kept its payload", n)
	}
}
