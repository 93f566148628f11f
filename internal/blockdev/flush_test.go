package blockdev

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// slotDev is a device with fixed service times (a flush takes flushLat)
// that logs every command's issue and completion instants.
type slotDev struct {
	fixedDev
	flushLat sim.Time
	cmds     []slotCmd
}

type slotCmd struct {
	op           Op
	issued, done sim.Time
}

func (d *slotDev) start(op Op, lat sim.Time, done func()) {
	i := len(d.cmds)
	d.cmds = append(d.cmds, slotCmd{op: op, issued: d.eng.Now(), done: -1})
	d.eng.After(lat, func() {
		d.cmds[i].done = d.eng.Now()
		done()
	})
}

func (d *slotDev) Read(_ int64, done func([]byte, error)) {
	d.start(OpRead, d.readLat, func() { done(nil, nil) })
}

func (d *slotDev) Write(_ int64, _ []byte, done func(error)) {
	d.start(OpWrite, d.writeLat, func() { done(nil) })
}

func (d *slotDev) Flush(done func()) { d.start(OpFlush, d.flushLat, done) }

// flushes returns the flush commands the device was issued, in order.
func (d *slotDev) flushes() []slotCmd {
	var out []slotCmd
	for _, c := range d.cmds {
		if c.op == OpFlush {
			out = append(out, c)
		}
	}
	return out
}

// flushRecorder submits flushes and records when each completes.
type flushRecorder struct {
	t    *testing.T
	eng  *sim.Engine
	s    *Stack
	done []sim.Time
}

// submit sends a flush from core 1 now and returns its index.
func (f *flushRecorder) submit() int {
	i := len(f.done)
	f.done = append(f.done, -1)
	f.s.Submit(1, Request{Op: OpFlush, Done: func(_ []byte, err error) {
		if err != nil {
			f.t.Errorf("flush %d: %v", i, err)
		}
		if f.done[i] >= 0 {
			f.t.Errorf("flush %d completed twice", i)
		}
		f.done[i] = f.eng.Now()
	}})
	return i
}

// at submits a flush at instant t.
func (f *flushRecorder) at(t sim.Time) { f.eng.Schedule(t, func() { f.submit() }) }

// TestBusyDeviceRunsOneFlushAtATime: with reads queued for every slot, a
// flush submitted while another runs is not issued until that one
// completes, the flushes submitted after it join it (one device
// command), and at no instant do two flushes hold slots while a read
// waits for one.
func TestBusyDeviceRunsOneFlushAtATime(t *testing.T) {
	eng := sim.NewEngine()
	dev := &slotDev{fixedDev: fixedDev{eng: eng, readLat: 20 * sim.Microsecond, writeLat: 10 * sim.Microsecond},
		flushLat: 300 * sim.Microsecond}
	s, err := New(eng, dev, Config{Mode: MultiQueue, CPUs: 2, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	sc := sched.New(eng, sched.Config{})
	reads := sc.AddTenant("reads", sched.LatencySensitive, 1)
	s.AttachScheduler(sc)
	// The reads reach the scheduler together, once core 0 has paid for
	// the batch, and each waits there until it is issued.
	s.SubmitBatch(0, readBatch(200, reads))
	queued := submitCost + 199*submitCost/batchDiscount
	f := &flushRecorder{t: t, eng: eng, s: s}
	f.at(queued + 50*sim.Microsecond) // runs first
	for _, at := range []sim.Time{150, 200, 250} {
		f.at(queued + at*sim.Microsecond) // held, then joined
	}
	eng.Run()

	var lastRead sim.Time
	for _, c := range dev.cmds {
		if c.op == OpRead {
			lastRead = max(lastRead, c.issued)
		}
	}
	if lastRead <= queued+250*sim.Microsecond {
		t.Fatalf("the last read was issued at %v: reads did not wait for slots while the flushes arrived", lastRead)
	}
	fl := dev.flushes()
	for i, a := range fl {
		for _, b := range fl[i+1:] {
			if lo, hi := max(a.issued, b.issued), min(a.done, b.done); lo < hi && lo < lastRead && lo >= queued {
				t.Errorf("two flushes held slots over [%v, %v) while reads waited until %v", lo, hi, lastRead)
			}
		}
	}
	if len(fl) != 2 {
		t.Fatalf("device ran %d flushes (%v), want 2: the running one and one for the three submitted during it", len(fl), fl)
	}
	if fl[1].issued < fl[0].done {
		t.Errorf("second flush issued at %v, before the running one completed at %v", fl[1].issued, fl[0].done)
	}
	if f.done[0] != fl[0].done+completeCost {
		t.Errorf("first flush completed at %v, want with its command (%v) plus completion CPU", f.done[0], fl[0].done)
	}
	for i := 1; i < len(f.done); i++ {
		if f.done[i] != f.done[1] || f.done[i] < fl[1].done {
			t.Errorf("flush %d completed at %v, want with the second device flush (done %v), as flush 1 at %v", i, f.done[i], fl[1].done, f.done[1])
		}
	}
	if s.Submitted != s.Completed {
		t.Errorf("submitted %d, completed %d", s.Submitted, s.Completed)
	}
}

// TestIdleDeviceIssuesAFlushAtOnce: with free slots and nothing waiting,
// a flush submitted while another runs is issued at once, the same
// delay after its submission as the first; a device with a free slot
// runs both.
func TestIdleDeviceIssuesAFlushAtOnce(t *testing.T) {
	eng := sim.NewEngine()
	dev := &slotDev{fixedDev: fixedDev{eng: eng, readLat: 20 * sim.Microsecond, writeLat: 10 * sim.Microsecond},
		flushLat: 300 * sim.Microsecond}
	s, err := New(eng, dev, Config{Mode: MultiQueue, CPUs: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := &flushRecorder{t: t, eng: eng, s: s}
	f.submit()
	second := 50 * sim.Microsecond
	f.at(second)
	// A read in flight beside them leaves slots free and none waiting.
	eng.Schedule(second, func() { s.Submit(1, Request{Op: OpRead}) })
	eng.Run()

	fl := dev.flushes()
	if len(fl) != 2 {
		t.Fatalf("device ran %d flushes, want 2", len(fl))
	}
	if got, want := fl[1].issued-second, fl[0].issued; got != want {
		t.Errorf("second flush reached the device %v after its submission, want %v as the first", got, want)
	}
	if fl[1].issued >= fl[0].done {
		t.Errorf("second flush waited for the first (issued at %v, first done at %v) with slots free", fl[1].issued, fl[0].done)
	}
}

// flushTap is a device that reports each flush reaching it.
type flushTap struct {
	ssd.Dev
	flushes []sim.Time
	eng     *sim.Engine
	onFlush func(n int)
}

func (d *flushTap) Flush(done func()) {
	d.flushes = append(d.flushes, d.eng.Now())
	if d.onFlush != nil {
		d.onFlush(len(d.flushes))
	}
	d.Dev.Flush(done)
}

// heldFlushRig is a stack of depth 4 over a small volatile-buffered
// flash device, with 64 pages on flash and reads of them queued for
// every slot from the instant it returns on.
func heldFlushRig(t *testing.T) (*sim.Engine, *ssd.Device, *flushTap, *Stack, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := ssd.Build(eng, ssd.Enterprise2012, ssd.Options{
		Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 16, PagesPerBlock: 16,
		BufferPages: 16, BufferVolatile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := d.(*ssd.Device)
	tap := &flushTap{Dev: dev, eng: eng}
	s, err := New(eng, tap, Config{Mode: MultiQueue, CPUs: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	sc := sched.New(eng, sched.Config{})
	reads := sc.AddTenant("reads", sched.LatencySensitive, 1)
	s.AttachScheduler(sc)
	for lpn := int64(100); lpn < 164; lpn++ {
		s.Submit(0, Request{Op: OpWrite, LPN: lpn, Data: page(byte(lpn))})
	}
	s.Submit(0, Request{Op: OpFlush})
	eng.Run()
	tap.flushes = nil
	const n = 2000
	s.SubmitBatch(0, readBatch(n, reads))
	return eng, dev, tap, s, eng.Now() + submitCost + (n-1)*submitCost/batchDiscount
}

// readBatch is n reads of the 64 pages from lpn 100 on, charged to t.
func readBatch(n int, t *sched.Tenant) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Op: OpRead, LPN: 100 + int64(i%64), Tenant: t}
	}
	return reqs
}

func page(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }

// write submits a one-page write of lpn and calls then once it is
// acknowledged.
func write(t *testing.T, s *Stack, lpn int64, then func()) {
	s.Submit(1, Request{Op: OpWrite, LPN: lpn, Data: page(byte(lpn)), Done: func(_ []byte, err error) {
		if err != nil {
			t.Errorf("write %d: %v", lpn, err)
		}
		if then != nil {
			then()
		}
	}})
}

// TestHeldFlushCoversAcknowledgedWrites: on a volatile-buffered device,
// every write acknowledged before a held flush's submission — and before
// the submission of a flush that joined it — survives Crash once that
// flush has completed, though the flush that was running when they were
// acknowledged covered none of them.
func TestHeldFlushCoversAcknowledgedWrites(t *testing.T) {
	eng, dev, tap, s, start := heldFlushRig(t)
	f := &flushRecorder{t: t, eng: eng, s: s}
	var heldAt sim.Time = -1
	tap.onFlush = func(n int) {
		if n != 1 {
			return
		}
		// The first flush is running: two writes, each followed by a
		// flush once it is acknowledged.
		write(t, s, 20, func() {
			heldAt = eng.Now()
			f.submit()
		})
		write(t, s, 21, func() { f.submit() })
	}
	eng.Schedule(start, func() {
		for lpn := int64(0); lpn < 12; lpn++ {
			write(t, s, lpn, nil)
		}
		f.submit()
	})
	eng.Run()

	if heldAt < 0 || len(f.done) != 3 {
		t.Fatalf("scenario did not run: %d flushes submitted", len(f.done))
	}
	lost := dev.Crash()
	for _, lpn := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 20, 21} {
		if slices.Contains(lost, lpn) {
			t.Errorf("write of lpn %d, acknowledged before a completed flush's submission, lost at Crash (lost %v)", lpn, lost)
		}
	}
	if heldAt >= f.done[0] {
		t.Fatalf("second flush submitted at %v, after the first completed at %v: nothing was held", heldAt, f.done[0])
	}
	if len(tap.flushes) != 2 {
		t.Errorf("device ran %d flushes, want 2 (the running one, then the held one the third joined)", len(tap.flushes))
	}
	if f.done[1] != f.done[2] || f.done[1] <= f.done[0] {
		t.Errorf("flushes completed at %v: want the second and third together, after the first", f.done)
	}
}

// TestHeldFlushCompletesOnDeadDevice: a device that dies while a flush
// runs still completes that flush and the one held behind it, and the
// stack drains with nothing outstanding.
func TestHeldFlushCompletesOnDeadDevice(t *testing.T) {
	eng, dev, tap, s, start := heldFlushRig(t)
	f := &flushRecorder{t: t, eng: eng, s: s}
	tap.onFlush = func(n int) {
		if n != 1 {
			return
		}
		f.submit() // held behind the running flush
		eng.Schedule(eng.Now()+10*sim.Microsecond, dev.Kill)
	}
	eng.Schedule(start, func() {
		for lpn := int64(0); lpn < 4; lpn++ {
			// The device may die before they reach it: no outcome is checked.
			s.Submit(1, Request{Op: OpWrite, LPN: lpn, Data: page(byte(lpn))})
		}
		f.submit()
	})
	eng.Run()

	for i, at := range f.done {
		if at < 0 {
			t.Errorf("flush %d never completed", i)
		}
	}
	if len(f.done) != 2 {
		t.Fatalf("%d flushes submitted, want 2", len(f.done))
	}
	if len(tap.flushes) != 2 || tap.flushes[1] < f.done[0] {
		t.Errorf("device saw flushes at %v, want the held one after the first completed at %v", tap.flushes, f.done[0])
	}
	if s.Submitted != s.Completed {
		t.Errorf("submitted %d, completed %d: the stack hung", s.Submitted, s.Completed)
	}
}
