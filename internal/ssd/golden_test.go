package ssd

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/bus"
	"repro/internal/ecc"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/sim"
)

// The flash path's timing golden. A seeded script of reads, writes
// (with and without payload), trims and flushes runs at queue depth 8 on
// a small, wearing device until every chip has collected garbage many
// times over, with uncorrectable reads and a controller and a chip stall
// on the way. Every reservation made on a LUN, a channel or the host
// link (label, wait, busy, instant), every host completion (instant,
// error, payload) and the final FTL and array counters feed one hash.
// The hashes of the two cases rated for 10 cycles date from before the
// flash path pooled its operation records, re-captured only when the
// printed FTL counters lost a field; those of the wear-out
// cases, whose programs fail and whose blocks retire, from when the FTL
// began surviving that. The buffered ones were re-captured when the
// write buffer began writing back the entry written longest ago rather
// than the one admitted first, all four when GC began choosing its
// victim by cost-benefit with √age instead of greedily, and the
// buffered ones again when a safe buffer began killing the flash copy
// of a page it acknowledges a newer version of, and again when the
// buffer's write-back order became a segmented LRU that keeps rewritten
// pages resident (buffered/rated8 then fails 2 programs, not 1), and
// again when it began writing back the pages written least often and
// keeping itself nearly full (4 failed programs), and again when a full
// buffer began handing each chip one write-back at a time: no program
// then fails at 8 rated cycles, so the buffered wear-out case runs at 7
// (14 failed programs). The buffered case on a part that suspends an
// erase for a read (erase suspend) dates from when the chips learned to.
// A change that
// reorders, adds or drops a single event, or moves one RNG draw,
// changes them.
var flashTimingGolden = map[string]uint64{
	"buffered":          0x30b75398dca41471,
	"unbuffered":        0x213d280d2676571,
	"buffered/rated7":   0xa5406f48681ad8e9,
	"unbuffered/rated9": 0x6a07c409dbb8c06a,
	"buffered/suspend":  0x5f905189f5e58382,
}

// goldenFlash builds the golden's device: 2 channels × 2 chips of two
// 2-plane LUNs, 16 blocks of 8 small pages per plane, rated for few
// erase cycles (rated) and with a raw bit error rate that wear lifts
// past the ECC's reach, so some host reads come back uncorrectable. At
// 10 rated cycles the script ends before wear-out program failures
// begin; below that they happen (on the buffered device from 7 down),
// and the FTL retires each failing block
// and moves its live pages off. Lower still, the device wears out
// before the script ends — unbuffered at 7, buffered at 6: so many
// blocks retire that a chip's GC runs out of reserve blocks and panics
// ("GC starved of reserve blocks"), since the FTL has no end-of-life
// handling yet.
func goldenFlash(tb testing.TB, eng *sim.Engine, buffered bool, rated int, suspend bool) *Device {
	tb.Helper()
	spec := nand.Spec{
		Name: "golden",
		Geometry: nand.Geometry{
			PageSize: 512, OOBSize: 16, PagesPerBlock: 8,
			BlocksPerPlane: 16, PlanesPerLUN: 2, LUNsPerChip: 2,
		},
		Timing: nand.Timing{
			ReadPage:    50 * sim.Microsecond,
			ProgramPage: 600 * sim.Microsecond,
			EraseBlock:  3 * sim.Millisecond,
		},
		Reliability:  nand.Reliability{RatedCycles: rated, BaseBER: 2e-5, BERGrowth: 60},
		EraseSuspend: suspend,
	}
	arr, err := ftl.NewArray(eng, ftl.ArrayConfig{
		Channels: 2, ChipsPerChannel: 2, Chip: spec,
		Channel: bus.Config{MBPerSec: 200, CmdOverhead: sim.Microsecond},
	}, 11)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := ftl.Config{OverProvision: 0.2, GCLowWater: 4, GCHighWater: 6, ECC: ecc.BCH8Per512, Seed: 3}
	if buffered {
		cfg.BufferPages, cfg.BufferSafe = 48, true
	}
	f, err := ftl.NewPageFTL(arr, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := NewDevice(eng, "golden", f, f, arr, SATA3)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// goldenRun drives the script and returns its hash with the counters
// the script must have exercised.
func goldenRun(tb testing.TB, buffered bool, rated int, suspend bool) (uint64, ftl.Stats, nand.Stats) {
	eng := sim.NewEngine()
	d := goldenFlash(tb, eng, buffered, rated, suspend)
	h := fnv.New64a()
	word := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	arr := d.Array()
	tap := func(name string) sim.Tap {
		return func(label string, wait, busy, at sim.Time) {
			fmt.Fprint(h, name, label)
			word(int64(wait))
			word(int64(busy))
			word(int64(at))
		}
	}
	for c := 0; c < arr.Chips(); c++ {
		for l := 0; l < arr.Spec().Geometry.LUNsPerChip; l++ {
			arr.Chip(c).LUNServer(l).SetTap(tap(fmt.Sprintf("c%dl%d", c, l)))
		}
	}
	for ch := 0; ch < arr.Channels(); ch++ {
		arr.Channel(ch).Server().SetTap(tap(fmt.Sprintf("ch%d", ch)))
	}
	d.Link().SetTap(tap("link"))

	const ops, depth = 24000, 8
	rng := sim.NewRNG(99)
	span := d.Capacity()
	issued := 0
	settled := func(kind byte, lpn int64, err error, data []byte) {
		h.Write([]byte{kind})
		word(lpn)
		word(int64(eng.Now()))
		if err != nil {
			fmt.Fprint(h, err.Error())
		}
		h.Write(data)
	}
	var next func()
	next = func() {
		if issued >= ops {
			return
		}
		issued++
		if issued == ops/2 {
			d.Stall(300 * sim.Microsecond)
			arr.Chip(1).Stall(eng.Now() + 2*sim.Millisecond)
		}
		lpn := rng.Int63n(span)
		switch r := rng.Float64(); {
		case r < 0.52:
			var data []byte
			if rng.Float64() < 0.75 {
				data = make([]byte, d.PageSize())
				for i := range data {
					data[i] = byte(lpn) + byte(i)
				}
			}
			d.Write(lpn, data, func(err error) { settled('w', lpn, err, nil); next() })
		case r < 0.90:
			d.Read(lpn, func(data []byte, err error) { settled('r', lpn, err, data); next() })
		case r < 0.97:
			settled('t', lpn, d.Trim(lpn), nil)
			eng.After(sim.Microsecond, next)
		default:
			d.Flush(func() { settled('f', -1, nil, nil); next() })
		}
	}
	for i := 0; i < depth; i++ {
		next()
	}
	eng.Run()
	if issued != ops {
		tb.Fatalf("script stopped after %d of %d ops", issued, ops)
	}
	fs := d.FTL().Stats()
	var ns nand.Stats
	for c := 0; c < arr.Chips(); c++ {
		s := arr.Chip(c).Stats()
		ns.Reads += s.Reads
		ns.Programs += s.Programs
		ns.Erases += s.Erases
		ns.ProgramFails += s.ProgramFails
		ns.EraseFails += s.EraseFails
	}
	fmt.Fprintf(h, "%+v %+v %d %d %d %d", fs, ns, arr.PageReads, arr.PagePrograms, arr.BlockErases, arr.CopyBacks)
	sum := h.Sum64()

	// Most writes carry a payload, so the script runs the chips' discard
	// path: once it drains, no more pages may hold a payload than there
	// are LPNs reading back with one (an uncorrectable read counts too).
	held, carried := 0, 0
	for c := 0; c < arr.Chips(); c++ {
		held += arr.Chip(c).PayloadPages()
	}
	for lpn := int64(0); lpn < span; lpn++ {
		d.Read(lpn, func(data []byte, err error) {
			if data != nil || err != nil {
				carried++
			}
		})
	}
	eng.Run()
	if held == 0 || held > carried {
		tb.Errorf("chips hold %d payloads for %d LPNs that read back one: a dead page kept its payload", held, carried)
	}
	return sum, fs, ns
}

func TestFlashTimingGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		buffered bool
		rated    int
		suspend  bool
	}{
		{"buffered", true, 10, false},
		{"unbuffered", false, 10, false},
		{"buffered/rated7", true, 7, false},
		{"unbuffered/rated9", false, 9, false},
		{"buffered/suspend", true, 10, true},
	} {
		name := tc.name
		t.Run(name, func(t *testing.T) {
			sum, fs, ns := goldenRun(t, tc.buffered, tc.rated, tc.suspend)
			t.Logf("ftl %+v", fs)
			t.Logf("nand %+v", ns)
			if fs.GCErases == 0 || fs.GCMoves == 0 || fs.ReadErrors == 0 || fs.HostTrims == 0 || fs.BufferHits == 0 && tc.buffered {
				t.Errorf("script missed a path: %d GC erases, %d GC moves, %d uncorrectable reads, %d trims, %d buffer hits",
					fs.GCErases, fs.GCMoves, fs.ReadErrors, fs.HostTrims, fs.BufferHits)
			}
			if tc.rated < 10 && ns.ProgramFails == 0 {
				t.Errorf("no program failed at %d rated cycles: the wear-out path did not run", tc.rated)
			}
			if want := flashTimingGolden[name]; sum != want {
				t.Errorf("timing hash %#x, want %#x: the flash path reordered, added or dropped an event", sum, want)
			}
		})
	}
}
