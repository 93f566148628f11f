package blockdev

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// blockingCalls are the calls the allocation gate measures, each issued
// by process p from core cpu at lpn under tenant t (nil: the untagged tenant);
// batch is scratch the call may fill.
var blockingCalls = []struct {
	name string
	call func(s *Stack, p *sim.Proc, t *sched.Tenant, cpu int, lpn int64, batch []Request) error
}{
	{"SubmitSync write", func(s *Stack, p *sim.Proc, t *sched.Tenant, cpu int, lpn int64, _ []Request) error {
		_, err := s.SubmitSync(p, cpu, Request{Op: OpWrite, LPN: lpn, Tenant: t})
		return err
	}},
	{"SubmitSync read", func(s *Stack, p *sim.Proc, t *sched.Tenant, cpu int, lpn int64, _ []Request) error {
		_, err := s.SubmitSync(p, cpu, Request{Op: OpRead, LPN: lpn, Tenant: t})
		return err
	}},
	{"SubmitSync flush", func(s *Stack, p *sim.Proc, _ *sched.Tenant, cpu int, _ int64, _ []Request) error {
		_, err := s.SubmitSync(p, cpu, Request{Op: OpFlush})
		return err
	}},
	{"SubmitBatchSync", func(s *Stack, p *sim.Proc, t *sched.Tenant, cpu int, lpn int64, batch []Request) error {
		batch[0] = Request{Op: OpWrite, LPN: lpn, Tenant: t}
		batch[1] = Request{Op: OpRead, LPN: (lpn + 3) % s.dev.Capacity(), Tenant: t}
		return s.SubmitBatchSync(p, cpu, batch)
	}},
}

// syncLoop is one process issuing blockingCalls through a stack over a
// tiny Enterprise2012 device (16 blocks of 8 pages): every call in turn
// while only is negative, else only blockingCalls[only]. A warm-up in
// turn programs every page, so the device is collecting garbage. run
// lets n more calls through; between runs the process parks, so a
// measured run is the calls and nothing else.
type syncLoop struct {
	eng   *sim.Engine
	dev   *ssd.Device
	p     *sim.Proc
	only  int
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
	l := &syncLoop{eng: eng, dev: dev.(*ssd.Device), only: -1}
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
			i := l.only
			if i < 0 {
				i = l.calls % len(blockingCalls)
			}
			err := blockingCalls[i].call(s, p, tenant, l.calls, lpn, batch)
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

// SubmitSync and SubmitBatchSync park the caller on a pooled record
// that counts its requests' completions, and Submit carries its batch of
// one in its submission record, so once the pools hold what a call needs
// each blocking call allocates nothing — on the way down through the
// stack, the device, the FTL and the chips, and back up.
func TestSyncWrappersAllocateNothing(t *testing.T) {
	for _, c := range []struct {
		mode      Mode
		scheduled bool
	}{{MultiQueue, false}, {SingleQueue, true}, {Direct, true}} {
		l := newSyncLoop(t, c.mode, c.scheduled)
		l.run(3000)
		if l.dev.FTL().Stats().GCErases == 0 {
			t.Fatal("the device never collected garbage")
		}
		const calls = 1000
		for i, bc := range blockingCalls {
			l.only = i
			got := testing.AllocsPerRun(1, func() { l.run(calls) }) / calls
			if l.err != nil {
				t.Fatal(l.err)
			}
			if got != 0 {
				t.Errorf("%v (scheduled %v): %.4f allocs per %s, want 0", c.mode, c.scheduled, got, bc.name)
			}
		}
		l.stop = true
		l.p.Unpark()
		l.eng.Run()
	}
}
