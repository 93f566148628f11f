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

// flashQD is the closed loop's client count.
const flashQD = 16

// randWriter is a closed loop of flashQD clients issuing uniform
// overwrites with no payload (payload copies are where ownership
// changes, and are not what the gate measures). Each client's
// completion is the one bound method value next, so the loop itself
// allocates nothing.
type randWriter struct {
	eng  *sim.Engine
	dev  *Device
	rng  *sim.RNG
	span int64

	left      int // writes still to issue
	idle      int // clients waiting for budget
	completed int
	err       error
	next      func(error)
}

// newRandWriter builds a 2×2-chip Enterprise2012 device, fills it
// sequentially, and then runs two logical spans of uniform overwrites
// through the closed loop, so every chip is collecting when it returns.
func newRandWriter(tb testing.TB) *randWriter {
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
	w.next = w.complete
	filled := func(err error) {
		if err != nil && w.err == nil {
			w.err = err
		}
	}
	for lpn := int64(0); lpn < w.span; lpn++ {
		w.dev.Write(lpn, nil, filled)
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
	w.dev.Write(w.rng.Int63n(w.span), nil, w.next)
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

func BenchmarkDeviceRandWrite(b *testing.B) {
	w := newRandWriter(b)
	b.ReportAllocs()
	for b.Loop() {
		w.run(1)
	}
	if w.err != nil {
		b.Fatal(w.err)
	}
}

func TestFlashPathSteadyStateAllocs(t *testing.T) {
	w := newRandWriter(t)
	const writes = 8192
	erases := w.dev.FTL().Stats().GCErases
	perWrite := testing.AllocsPerRun(1, func() { w.run(writes) }) / writes
	if w.err != nil {
		t.Fatal(w.err)
	}
	if w.dev.FTL().Stats().GCErases == erases {
		t.Fatal("no garbage collection ran in the measured window")
	}
	if perWrite != 0 {
		t.Errorf("%.4f allocs per host write on an aged device, want exactly 0", perWrite)
	}
}
