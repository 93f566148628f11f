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
// The hashes below were captured before the flash path pooled its
// operation records: a change that reorders, adds or drops a single
// event, or moves one RNG draw, changes them.
var flashTimingGolden = map[string]uint64{
	"buffered":   0x4e0b552471f6f2b0,
	"unbuffered": 0x68be25f323cbd411,
}

// goldenFlash builds the golden's device: 2 channels × 2 chips of two
// 2-plane LUNs, 16 blocks of 8 small pages per plane, rated for few
// erase cycles and with a raw bit error rate that wear lifts past the
// ECC's reach, so some host reads come back uncorrectable. Wear-out
// program failures are left out: the FTL does not survive them yet (a
// GC victim is erased after a failed move left it a valid page, and a
// retired block's evacuation racing GC's can issue a cross-plane copy's
// program after a later copyback to the same frontier — both panic).
func goldenFlash(tb testing.TB, eng *sim.Engine, buffered bool) *Device {
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
		Reliability: nand.Reliability{RatedCycles: 10, BaseBER: 2e-5, BERGrowth: 60},
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
	d, err := NewDevice(eng, "golden", f, arr, SATA3)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// goldenRun drives the script and returns its hash with the counters
// the script must have exercised.
func goldenRun(tb testing.TB, buffered bool) (uint64, ftl.Stats, nand.Stats) {
	eng := sim.NewEngine()
	d := goldenFlash(tb, eng, buffered)
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
			d.StallChip(1, 2*sim.Millisecond)
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
	for _, name := range []string{"buffered", "unbuffered"} {
		t.Run(name, func(t *testing.T) {
			sum, fs, ns := goldenRun(t, name == "buffered")
			t.Logf("ftl %+v", fs)
			t.Logf("nand %+v", ns)
			if fs.GCErases == 0 || fs.GCMoves == 0 || fs.ReadErrors == 0 || fs.HostTrims == 0 || fs.BufferHits == 0 && name == "buffered" {
				t.Errorf("script missed a path: %d GC erases, %d GC moves, %d uncorrectable reads, %d trims, %d buffer hits",
					fs.GCErases, fs.GCMoves, fs.ReadErrors, fs.HostTrims, fs.BufferHits)
			}
			if want := flashTimingGolden[name]; sum != want {
				t.Errorf("timing hash %#x, want %#x: the flash path reordered, added or dropped an event", sum, want)
			}
		})
	}
}
