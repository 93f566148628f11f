package ftl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

// stamped is a page no other write in a test carries: seq in its first
// eight bytes, byte(seq) in the rest.
func stamped(ps int, seq uint64) []byte {
	d := pageData(ps, byte(seq))
	binary.LittleEndian.PutUint64(d, seq)
	return d
}

// A buffer the FTL recycles into a host write's entry copy is one no
// reader ever saw. A seeded script at queue depth 8 mixes overwrites,
// reads and trims over half the capacity of a 4-chip, 2-plane array, so
// GC moves pages both by copyback and across planes while host commands
// race them; one die is dead from the start, so programs that land on it
// fail and are retried elsewhere. Every slice a read returns is kept
// with a copy of its bytes: at the end each must still equal its copy
// (a recycled buffer a reader held would have been overwritten by a
// later write's entry copy), and every LPN must read back its last
// write. Dropping the ownership clear at a flash read, at a GC move's
// source, or at a failed program each fails it.
func TestRecycledPayloadNeverReachesAReader(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		name := "unbuffered"
		if buffered {
			name = "buffered"
		}
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			spec := tinySpec()
			spec.Geometry.PlanesPerLUN = 2
			arr, err := NewArray(eng, ArrayConfig{
				Channels: 2, ChipsPerChannel: 2, Chip: spec,
				Channel: bus.Config{MBPerSec: 200, CmdOverhead: sim.Microsecond},
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := writeThroughConfig()
			if buffered {
				cfg.BufferPages = 8
			}
			f, err := NewPageFTL(arr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			arr.Chip(3).Fail()
			ps := f.PageSize()
			type held struct{ got, want []byte }
			var reads []held
			failedReads := 0
			model := map[int64]uint64{} // lpn -> seq of the last write
			busy := map[int64]bool{}    // lpns with a command in flight
			rng := sim.NewRNG(11)
			span := f.Capacity() / 2
			var seq uint64
			left := 0
			var next func()
			next = func() {
				if left == 0 {
					return
				}
				left--
				lpn := rng.Int63n(span)
				for busy[lpn] {
					lpn = rng.Int63n(span)
				}
				switch r := rng.Float64(); {
				case r < 0.55:
					seq++
					model[lpn], busy[lpn] = seq, true
					f.WriteLPN(lpn, stamped(ps, seq), func(err error) {
						if err != nil {
							t.Errorf("write lpn %d: %v", lpn, err)
						}
						delete(busy, lpn)
						next()
					})
				case r < 0.9:
					busy[lpn] = true
					f.ReadLPN(lpn, func(d []byte, err error) {
						switch {
						case errors.Is(err, ErrUncorrectable):
							failedReads++ // a write still on its way to the dead die
						case err != nil:
							t.Errorf("read lpn %d: %v", lpn, err)
						case d != nil:
							reads = append(reads, held{d, bytes.Clone(d)})
						}
						delete(busy, lpn)
						next()
					})
				default:
					delete(model, lpn)
					if err := f.Trim(lpn); err != nil {
						t.Fatal(err)
					}
					eng.After(sim.Microsecond, next)
				}
			}
			const depth = 8
			left = 12 * int(f.Capacity())
			for i := 0; i < depth; i++ {
				next()
			}
			eng.Run()

			st := f.Stats()
			cross := st.GCMoves - arr.CopyBacks
			if arr.CopyBacks == 0 || cross == 0 || arr.Chip(3).Stats().ProgramFails == 0 {
				t.Fatalf("script missed a path: %d copybacks, %d cross-plane moves, %d failed programs",
					arr.CopyBacks, cross, arr.Chip(3).Stats().ProgramFails)
			}
			if cap(f.spares) == 0 {
				t.Fatal("no killed page's buffer was ever recycled")
			}
			t.Logf("%d writes, %d reads kept (%d failed on the dead die), %d GC moves (%d copyback), %d failed programs",
				seq, len(reads), failedReads, st.GCMoves, arr.CopyBacks, arr.Chip(3).Stats().ProgramFails)
			for i, r := range reads {
				if !bytes.Equal(r.got, r.want) {
					t.Fatalf("read %d of %d: the bytes it returned changed later (now write %d's): a buffer a reader held was recycled",
						i, len(reads), binary.LittleEndian.Uint64(r.got))
				}
			}
			for lpn := int64(0); lpn < span; lpn++ {
				got := mustRead(t, eng, f, lpn)
				want, ok := model[lpn]
				if !ok {
					if got != nil {
						t.Fatalf("trimmed lpn %d reads %d bytes", lpn, len(got))
					}
					continue
				}
				if !bytes.Equal(got, stamped(ps, want)) {
					var at uint64
					if len(got) >= 8 {
						at = binary.LittleEndian.Uint64(got)
					}
					t.Fatalf("lpn %d reads write %d, want its last write %d", lpn, at, want)
				}
			}
		})
	}
}

// A page overwritten while its program is in flight dies before the
// program reports, so the chip does not hand that buffer back at the
// page's death (nand.Chip.Discard returns nil while a program is in
// flight). Here lpn 1's two writes both land on the dead die: the
// first, superseded, settles without a retry, and the second is retried
// on the live one, while lpns 0 and 2 take entry copies around them:
// every LPN must read back its own last write.
func TestProgramFailingAfterItsPageDiedKeepsItsBuffer(t *testing.T) {
	eng, arr := tinyArray(t, 1, 2)
	cfg := writeThroughConfig()
	cfg.Placement = PlaceStatic // lpn % 2 picks the chip
	f, err := NewPageFTL(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arr.Chip(1).Fail()
	ps := f.PageSize()
	write := func(lpn int64, seq uint64) {
		f.WriteLPN(lpn, stamped(ps, seq), func(err error) {
			if err != nil {
				t.Errorf("write lpn %d: %v", lpn, err)
			}
		})
	}
	write(1, 1)
	write(1, 2) // kills the first write's page while it programs
	write(0, 3)
	eng.Run()
	write(2, 4)
	eng.Run()
	if n := arr.Chip(1).Stats().ProgramFails; n < 2 {
		t.Fatalf("%d programs failed, want lpn 1's two at least", n)
	}
	for lpn, seq := range map[int64]uint64{0: 3, 1: 2, 2: 4} {
		if got := mustRead(t, eng, f, lpn); !bytes.Equal(got, stamped(ps, seq)) {
			t.Errorf("lpn %d reads %d bytes other than its last write %d", lpn, len(got), seq)
		}
	}
}

// A program that fails after a trim killed its page is settled, not
// retried: the retry would map the trimmed LPN back to the stale bytes.
func TestProgramFailingAfterTrimStaysTrimmed(t *testing.T) {
	eng, arr := tinyArray(t, 1, 2)
	cfg := writeThroughConfig()
	cfg.Placement = PlaceStatic // lpn % 2 picks the chip
	f, err := NewPageFTL(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arr.Chip(1).Fail()
	ps := f.PageSize()
	var wrote error = errors.New("write never settled")
	f.WriteLPN(1, stamped(ps, 1), func(err error) { wrote = err })
	if err := f.Trim(1); err != nil { // lands while the program runs
		t.Fatal(err)
	}
	eng.Run()
	if n := arr.Chip(1).Stats().ProgramFails; n != 1 {
		t.Fatalf("%d programs failed, want the trimmed write's 1", n)
	}
	if wrote != nil {
		t.Fatalf("superseded write settled with %v", wrote)
	}
	if got := mustRead(t, eng, f, 1); got != nil {
		t.Fatalf("trimmed lpn 1 reads write %d back", binary.LittleEndian.Uint64(got))
	}
}

// A program that fails after a newer write of its LPN landed on another
// chip is settled, not retried: the retry would replace the newer bytes
// with the older.
func TestProgramFailingAfterOverwriteKeepsNewerBytes(t *testing.T) {
	eng, arr := tinyArray(t, 1, 2)
	f, err := NewPageFTL(arr, writeThroughConfig()) // dynamic placement
	if err != nil {
		t.Fatal(err)
	}
	arr.Chip(1).Fail()
	ps := f.PageSize()
	write := func(lpn int64, seq uint64) {
		f.WriteLPN(lpn, stamped(ps, seq), func(err error) {
			if err != nil {
				t.Errorf("write %d of lpn %d: %v", seq, lpn, err)
			}
		})
	}
	write(0, 1) // chip 0: the round-robin cursor moves to chip 1
	write(1, 2) // chip 1, whose program will fail
	write(1, 3) // chip 0, committed before write 2's program reports
	eng.Run()
	if n := arr.Chip(1).Stats().ProgramFails; n != 1 {
		t.Fatalf("%d programs failed, want write 2's 1", n)
	}
	if n := arr.Chip(0).Stats().ProgramFails; n != 0 {
		t.Fatalf("the live die failed %d programs", n)
	}
	for lpn, seq := range map[int64]uint64{0: 1, 1: 3} {
		if got := mustRead(t, eng, f, lpn); !bytes.Equal(got, stamped(ps, seq)) {
			t.Errorf("lpn %d reads %d bytes other than its last write %d", lpn, len(got), seq)
		}
	}
}

// A buffer write-back whose program fails is rewritten on another chip
// and still maps: it is its LPN's newest write, so the retry is not
// superseded the way a parked write-back overtaken by a newer one is.
func TestFailedWriteBackRetryStillMaps(t *testing.T) {
	eng, arr := tinyArray(t, 1, 2)
	cfg := writeThroughConfig()
	cfg.Placement = PlaceStatic // lpn % 2 picks the chip; the retry takes the other
	cfg.BufferPages = 4
	f, err := NewPageFTL(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arr.Chip(1).Fail()
	ps := f.PageSize()
	mustWrite(t, eng, f, 1, 7)
	flushed := false
	f.Flush(func() { flushed = true })
	eng.Run()
	if !flushed {
		t.Fatal("flush never completed")
	}
	if n := arr.Chip(1).Stats().ProgramFails; n != 1 {
		t.Fatalf("%d programs failed, want the write-back's 1", n)
	}
	if got := mustRead(t, eng, f, 1); !bytes.Equal(got, pageData(ps, 7)) {
		t.Fatalf("lpn 1 reads %d bytes other than its write-back's after the retry", len(got))
	}
}
