package ssd

import (
	"testing"

	"repro/internal/sim"
)

// Flash-path allocation gate and benchmark. A host write on an aged,
// collecting Enterprise2012 device runs the whole flash path: the link,
// the write buffer's admission and write-back, the FTL's program, GC
// moves and erases, the channel and the chip. Every command on it is a
// record taken from its owner's idle list with its callbacks bound once
// (sim.Pool), so once every structure it passes through has reached its
// working size a host write allocates nothing. Allocation counts are
// deterministic for a seeded device, so the gate is exact, like the
// substrate's (sim.TestSteadyStateAllocatesNothing). Closures per
// command measured 26 allocations per host write here.
//
// With a payload the write buffer copies each write on entry; the copy
// lands in the buffer of a page the FTL killed without a reader ever
// seeing it (an overwrite's victim, carried through GC moves), so a
// payload-carrying host write allocates nothing either once the spare
// list is warm.

// flashQD is the closed loop's client count.
const flashQD = 16

// randWriter is a closed loop of flashQD clients issuing uniform
// overwrites, each carrying data (nil: no payload). Each client's
// completion is the one bound method value next, so the loop itself
// allocates nothing.
type randWriter struct {
	eng  *sim.Engine
	dev  *Device
	rng  *sim.RNG
	span int64
	data []byte

	left      int // writes still to issue
	idle      int // clients waiting for budget
	completed int
	err       error
	next      func(error)
}

// newRandWriter builds a 2×2-chip Enterprise2012 device, fills it
// sequentially, and then runs two logical spans of uniform overwrites
// through the closed loop, so every chip is collecting when it returns.
// With payload set every write carries a page of bytes.
func newRandWriter(tb testing.TB, payload bool) *randWriter {
	tb.Helper()
	eng := sim.NewEngine()
	d, err := Build(eng, Enterprise2012, Options{
		Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 64, PagesPerBlock: 32,
		OverProvision: 0.12, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	w := &randWriter{eng: eng, dev: d.(*Device), rng: sim.NewRNG(7), span: d.Capacity(), idle: flashQD}
	if payload {
		w.data = make([]byte, d.PageSize())
		for i := range w.data {
			w.data[i] = byte(i)
		}
	}
	w.next = w.complete
	filled := func(err error) {
		if err != nil && w.err == nil {
			w.err = err
		}
	}
	for lpn := int64(0); lpn < w.span; lpn++ {
		w.dev.Write(lpn, w.data, filled)
		if lpn%flashQD == flashQD-1 {
			eng.Run()
		}
	}
	eng.Run()
	w.run(2 * int(w.span))
	if w.err != nil {
		tb.Fatal(w.err)
	}
	if w.dev.FTL().Stats().GCErases == 0 {
		tb.Fatal("set-up never reached garbage collection")
	}
	return w
}

func (w *randWriter) issue() {
	w.left--
	w.dev.Write(w.rng.Int63n(w.span), w.data, w.next)
}

func (w *randWriter) complete(err error) {
	w.completed++
	if err != nil && w.err == nil {
		w.err = err
	}
	if w.left > 0 {
		w.issue()
		return
	}
	w.idle++
}

// run lets n more writes through and steps the engine until n more have
// completed. Writes left in flight carry over to the next run, so the
// device never drains between runs.
func (w *randWriter) run(n int) {
	w.left += n
	for w.idle > 0 && w.left > 0 {
		w.idle--
		w.issue()
	}
	for target := w.completed + n; w.completed < target && w.eng.Step(); {
	}
}

func BenchmarkDeviceRandWrite(b *testing.B) { benchmarkRandWrite(b, false) }

func BenchmarkDeviceRandWritePayload(b *testing.B) { benchmarkRandWrite(b, true) }

func benchmarkRandWrite(b *testing.B, payload bool) {
	w := newRandWriter(b, payload)
	b.ReportAllocs()
	for b.Loop() {
		w.run(1)
	}
	if w.err != nil {
		b.Fatal(w.err)
	}
}

func TestFlashPathSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		payload bool
	}{{"no payload", false}, {"4 KiB payload", true}} {
		t.Run(c.name, func(t *testing.T) {
			w := newRandWriter(t, c.payload)
			const writes = 8192
			stats := w.dev.FTL().Stats()
			perWrite := testing.AllocsPerRun(1, func() { w.run(writes) }) / writes
			if w.err != nil {
				t.Fatal(w.err)
			}
			after := w.dev.FTL().Stats()
			if after.GCErases == stats.GCErases || after.GCMoves == stats.GCMoves {
				t.Fatal("no garbage collection ran in the measured window")
			}
			if perWrite != 0 {
				t.Errorf("%.4f allocs per host write on an aged device, want exactly 0", perWrite)
			}
		})
	}
}
