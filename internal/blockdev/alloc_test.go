package blockdev

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// syncLoop is one process issuing WriteSyncAs, ReadSync, FlushSync and a
// two-request SubmitBatchSync in turn through a stack over a tiny
// Enterprise2012 device (16 blocks of 8 pages), so a warm-up has
// programmed every page and the device is collecting garbage. run lets n more calls through; between runs the
// process parks, so a measured run is the calls and nothing else.
type syncLoop struct {
	eng   *sim.Engine
	dev   *ssd.Device
	p     *sim.Proc
	left  int
	calls int
	err   error
	stop  bool
}

func newSyncLoop(t *testing.T, mode Mode, scheduled bool) *syncLoop {
	t.Helper()
	eng := sim.NewEngine()
	dev, err := ssd.Build(eng, ssd.Enterprise2012, ssd.Options{Channels: 1, ChipsPerChannel: 1, BlocksPerPlane: 8, PagesPerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(eng, dev, DefaultConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	var tenant *sched.Tenant
	if scheduled {
		sc := sched.New(eng, sched.DefaultConfig())
		s.AttachScheduler(sc)
		tenant = sc.AddTenant("t", sched.LatencySensitive, 1)
	}
	l := &syncLoop{eng: eng, dev: dev.(*ssd.Device)}
	eng.Go(func(p *sim.Proc) {
		l.p = p
		batch := make([]Request, 2) // reused by every batch call
		for lpn := int64(0); ; lpn = (lpn + 7) % dev.Capacity() {
			for l.left == 0 {
				if l.stop || !p.Park() {
					return
				}
			}
			l.left--
			var err error
			switch l.calls % 4 {
			case 0:
				err = s.WriteSyncAs(p, tenant, l.calls, lpn, nil)
			case 1:
				_, err = s.ReadSyncAs(p, tenant, l.calls, lpn)
			case 2:
				err = s.FlushSync(p, l.calls)
			default:
				batch[0] = Request{Op: OpWrite, LPN: lpn, Tenant: tenant}
				batch[1] = Request{Op: OpRead, LPN: (lpn + 3) % dev.Capacity(), Tenant: tenant}
				err = s.SubmitBatchSync(p, l.calls, batch)
			}
			if err != nil && l.err == nil {
				l.err = err
			}
			l.calls++
		}
	})
	eng.Step() // the process starts and parks
	return l
}

func (l *syncLoop) run(n int) {
	l.left += n
	l.p.Unpark()
	for target := l.calls + n; l.calls < target && l.eng.Step(); {
	}
}

// The blocking wrappers park the caller on a pooled record that counts
// its requests' completions (SubmitBatchSync's as well as the
// single-request wrappers'), and Submit carries its batch of one in its
// submission record, so once the pools hold what a call needs a blocking request
// allocates nothing — on the way down through the stack, the device, the
// FTL and the chips, and back up.
func TestSyncWrappersAllocateNothing(t *testing.T) {
	for _, c := range []struct {
		mode      Mode
		scheduled bool
	}{{MultiQueue, false}, {SingleQueue, true}, {Direct, true}} {
		l := newSyncLoop(t, c.mode, c.scheduled)
		l.run(3000)
		const calls = 3000
		got := testing.AllocsPerRun(1, func() { l.run(calls) }) / calls
		if l.err != nil {
			t.Fatal(l.err)
		}
		if l.dev.FTL().Stats().GCErases == 0 {
			t.Fatal("the device never collected garbage")
		}
		if got != 0 {
			t.Errorf("%v (scheduled %v): %.4f allocs per blocking call, want 0", c.mode, c.scheduled, got)
		}
		l.stop = true
		l.p.Unpark()
		l.eng.Run()
	}
}
