package ssd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/ftl"
	"repro/internal/sim"
)

// Every LPN reads back what the host last wrote to it while blocks wear
// out under it. A seeded script of payload writes, overwrites, trims,
// reads and flushes runs at queue depth 8 on the golden's wearing
// device, unbuffered and with a battery-backed buffer, rated for 10
// erase cycles (no program fails) and for fewer (programs fail, and the
// FTL retires their blocks and moves the live pages off): 8 unbuffered,
// 6 buffered. The buffer absorbs rewrites, and the flash copy of a page
// it holds a newer version of is dead at once, so GC does not copy it:
// at 7 no buffered program fails, at 6 some do, and at 5 the chips run
// out of good blocks (ROADMAP item 12's end-of-life panic). The
// wear-out cases run again on chips that suspend an erase for a read,
// so reads overtake the erases issued before them: unbuffered at 7,
// since at 8 no program fails there. Like a host, the script never keeps two commands on one LPN in
// flight, so each read has one right answer: the bytes of the LPN's
// last acknowledged write, nothing once it was trimmed or never written,
// or ErrUncorrectable where wear took the page past the ECC. At the end
// every LPN is read back the same way.
func TestReadBackUnderWear(t *testing.T) {
	for _, tc := range []struct {
		buffered bool
		rated    int
		suspend  bool
	}{{false, 10, false}, {true, 10, false}, {false, 8, false}, {true, 6, false}, {false, 7, true}, {true, 6, true}} {
		name := fmt.Sprintf("unbuffered/rated%d", tc.rated)
		if tc.buffered {
			name = fmt.Sprintf("buffered/rated%d", tc.rated)
		}
		if tc.suspend {
			name += "/suspend"
		}
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			d := goldenFlash(t, eng, tc.buffered, tc.rated, tc.suspend)
			ps := d.PageSize()
			model := map[int64]uint64{} // lpn -> stamp of the last acknowledged write
			busy := map[int64]bool{}    // lpns with a command in flight
			var stamp uint64
			uncorrectable := 0
			check := func(lpn int64, data []byte, err error) {
				t.Helper()
				want, written := model[lpn]
				switch {
				case errors.Is(err, ftl.ErrUncorrectable):
					uncorrectable++
				case err != nil:
					t.Fatalf("read lpn %d: %v", lpn, err)
				case !written && data != nil:
					t.Fatalf("lpn %d reads back %d bytes after a trim, or never written", lpn, len(data))
				case written && !bytes.Equal(data, wearPage(ps, want)):
					t.Fatalf("lpn %d reads back %s, want stamp %d", lpn, describeStamp(data), want)
				}
			}
			rng := sim.NewRNG(7)
			span := d.Capacity()
			const ops, depth = 20000, 8
			left := ops
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
					stamp++
					s := stamp
					busy[lpn] = true
					d.Write(lpn, wearPage(ps, s), func(err error) {
						if err != nil {
							t.Fatalf("write lpn %d: %v", lpn, err)
						}
						busy[lpn] = false
						model[lpn] = s
						next()
					})
				case r < 0.90:
					busy[lpn] = true
					d.Read(lpn, func(data []byte, err error) {
						busy[lpn] = false
						check(lpn, data, err)
						next()
					})
				case r < 0.97:
					if err := d.Trim(lpn); err != nil {
						t.Fatalf("trim lpn %d: %v", lpn, err)
					}
					delete(model, lpn)
					eng.After(sim.Microsecond, next)
				default:
					d.Flush(next)
				}
			}
			for i := 0; i < depth; i++ {
				next()
			}
			eng.Run()
			if left != 0 {
				t.Fatalf("script stopped with %d of %d ops left", left, ops)
			}
			for lpn := int64(0); lpn < span; lpn++ {
				d.Read(lpn, func(data []byte, err error) { check(lpn, data, err) })
				eng.Run()
			}
			fails := int64(0)
			for c := 0; c < d.Array().Chips(); c++ {
				fails += d.Array().Chip(c).Stats().ProgramFails
			}
			t.Logf("%d programs failed, %d uncorrectable reads, %d GC moves", fails, uncorrectable, d.FTL().Stats().GCMoves)
			if tc.rated < 10 && fails == 0 {
				t.Errorf("no program failed at %d rated cycles: the relocation path did not run", tc.rated)
			}
		})
	}
}

// wearPage is a page only the write stamped s carries: s in its first
// eight bytes, byte(s) in the rest.
func wearPage(ps int, s uint64) []byte {
	d := bytes.Repeat([]byte{byte(s)}, ps)
	binary.LittleEndian.PutUint64(d, s)
	return d
}

// describeStamp names what a page read back holds.
func describeStamp(data []byte) string {
	if len(data) < 8 {
		return fmt.Sprintf("%d bytes", len(data))
	}
	return fmt.Sprintf("stamp %d", binary.LittleEndian.Uint64(data))
}
