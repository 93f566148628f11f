package sched

import (
	"testing"

	"repro/internal/sim"
)

// rig emulates the downstream stack: a device queue with a fixed number
// of slots and fixed per-request service time, pulling from the
// scheduler exactly the way blockdev's pump does.
type rig struct {
	eng      *sim.Engine
	sc       *Scheduler
	slots    int
	inflight int
	service  sim.Time
}

func newRig(eng *sim.Engine, sc *Scheduler, slots int, service sim.Time) *rig {
	return &rig{eng: eng, sc: sc, slots: slots, service: service}
}

// enqueue adds one request for t: an EnqueueBatch of one item.
func enqueue(sc *Scheduler, t *Tenant, cost int, dispatch func()) {
	sc.EnqueueBatch(t, []Item{{Cost: cost, Dispatch: dispatch}})
}

// next pops one dispatch: a drain of one.
func next(sc *Scheduler) (dispatch func(), ok bool) {
	ds := sc.NextBatch(1, nil)
	if len(ds) == 0 {
		return nil, false
	}
	return ds[0], true
}

func (r *rig) pump() {
	for r.inflight < r.slots {
		d, ok := next(r.sc)
		if !ok {
			return
		}
		r.inflight++
		d()
	}
}

// enqueueN adds n unit-cost requests for t whose dispatch occupies one
// rig slot for the service time.
func (r *rig) enqueueN(t *Tenant, n int) {
	for i := 0; i < n; i++ {
		enqueue(r.sc, t, 1, func() {
			r.eng.After(r.service, func() {
				r.inflight--
				r.pump()
			})
		})
	}
}

func TestWeightedFairness(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	a := sc.AddTenant("a", Throughput, 4)
	b := sc.AddTenant("b", Throughput, 2)
	c := sc.AddTenant("c", Throughput, 1)
	r := newRig(eng, sc, 4, 10*sim.Microsecond)
	r.enqueueN(a, 20000)
	r.enqueueN(b, 20000)
	r.enqueueN(c, 20000)
	r.pump()
	eng.RunUntil(20 * sim.Millisecond)

	total := a.Dispatched + b.Dispatched + c.Dispatched
	if total < 1000 {
		t.Fatalf("only %d dispatches in the window", total)
	}
	for _, tn := range []*Tenant{a, b, c} {
		if tn.q.Len() == 0 {
			t.Fatalf("tenant %s drained; shares are no longer comparable", tn.name)
		}
		share := float64(tn.Dispatched) / float64(total)
		want := float64(tn.weight) / 7
		if share < want*0.9 || share > want*1.1 {
			t.Errorf("tenant %s got share %.3f, want %.3f ±10%%", tn.name, share, want)
		}
	}
}

func TestEqualWeightsSplitEvenly(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	a := sc.AddTenant("a", Throughput, 1)
	b := sc.AddTenant("b", Throughput, 1)
	r := newRig(eng, sc, 2, 5*sim.Microsecond)
	r.enqueueN(a, 10000)
	r.enqueueN(b, 10000)
	r.pump()
	eng.RunUntil(10 * sim.Millisecond)
	if a.Dispatched == 0 || b.Dispatched == 0 {
		t.Fatal("a tenant starved")
	}
	diff := a.Dispatched - b.Dispatched
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(a.Dispatched+b.Dispatched) {
		t.Fatalf("equal weights diverged: a=%d b=%d", a.Dispatched, b.Dispatched)
	}
}

func TestGCAwareDefersThroughputUnderLatencyBacklog(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	lat := sc.AddTenant("lat", LatencySensitive, 1)
	bg := sc.AddTenant("bg", Throughput, 8)
	r := newRig(eng, sc, 1, 10*sim.Microsecond)

	sc.SetGCActiveChips(2) // device says: GC running on two chips
	r.enqueueN(bg, 50)
	r.enqueueN(lat, 50)
	r.pump()
	eng.RunUntil(400 * sim.Microsecond)

	if lat.Dispatched < 30 {
		t.Fatalf("latency tenant made no progress under GC: %d", lat.Dispatched)
	}
	if bg.Dispatched != 0 {
		t.Fatalf("throughput tenant dispatched %d during GC with latency backlog", bg.Dispatched)
	}
	if sc.GCDeferrals == 0 {
		t.Fatal("no GC deferrals recorded")
	}

	// GC ends: the backlog of background work drains.
	sc.SetGCActiveChips(0)
	eng.Run()
	if bg.Dispatched != 50 || lat.Dispatched != 50 {
		t.Fatalf("after GC cleared: bg=%d lat=%d, want 50/50", bg.Dispatched, lat.Dispatched)
	}
}

func TestGCDeferralBoundedByLimit(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	lat := sc.AddTenant("lat", LatencySensitive, 1)
	bg := sc.AddTenant("bg", Throughput, 1)
	r := newRig(eng, sc, 1, 10*sim.Microsecond)

	sc.SetGCActiveChips(1)
	r.enqueueN(bg, 1)
	r.enqueueN(lat, 10000) // latency backlog never drains in the window
	r.pump()

	eng.RunUntil(gcDeferLimit - 100*sim.Microsecond)
	if bg.Dispatched != 0 {
		t.Fatalf("background request dispatched %d before the defer limit", bg.Dispatched)
	}
	eng.RunUntil(gcDeferLimit + 100*sim.Microsecond)
	if bg.Dispatched != 1 {
		t.Fatalf("background request still starved after the defer limit: %d", bg.Dispatched)
	}
}

// TestGCNotificationsAloneDeferNothing: GC-awareness is always on, but
// it only ever acts for a latency-sensitive backlog — with none queued,
// a device reporting GC on every chip holds back no throughput work.
func TestGCNotificationsAloneDeferNothing(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	bulk := sc.AddTenant("bulk", Throughput, 1)
	bg := sc.AddTenant("bg", Throughput, 1)
	r := newRig(eng, sc, 1, 10*sim.Microsecond)
	sc.SetGCActiveChips(4)
	r.enqueueN(bulk, 20)
	r.enqueueN(bg, 20)
	r.pump()
	eng.Run()
	if bg.Dispatched != 20 || bulk.Dispatched != 20 || sc.GCDeferrals != 0 {
		t.Fatalf("deferred without a latency backlog: bulk=%d bg=%d deferrals=%d", bulk.Dispatched, bg.Dispatched, sc.GCDeferrals)
	}
}

func TestIdleTenantForfeitsDeficit(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	a := sc.AddTenant("a", Throughput, 10)
	b := sc.AddTenant("b", Throughput, 1)
	r := newRig(eng, sc, 1, 10*sim.Microsecond)
	// a drains completely, goes idle, then returns: it must not have
	// banked credit from the idle period.
	r.enqueueN(a, 5)
	r.pump()
	eng.Run()
	if a.deficit != 0 {
		t.Fatalf("idle tenant kept deficit %d", a.deficit)
	}
	r.enqueueN(a, 100)
	r.enqueueN(b, 100)
	r.pump()
	eng.RunUntil(eng.Now() + 500*sim.Microsecond)
	if b.Dispatched == 0 {
		t.Fatal("low-weight tenant starved after rival's idle period")
	}
}

// TestWaitTotalsRecords: a dispatch's queue wait lands in its class's
// WaitTotals entry, the profiler's wait source.
func TestWaitTotalsRecords(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	a := sc.AddTenant("a", LatencySensitive, 1)
	r := newRig(eng, sc, 1, 100*sim.Microsecond)
	r.enqueueN(a, 10)
	r.pump()
	eng.Run()
	if a.Dispatched != 10 {
		t.Fatalf("dispatched %d, want 10", a.Dispatched)
	}
	// Request i waited behind i 100µs services: 0+1+…+9 = 45 of them.
	w := sc.WaitTotals()
	if got, want := w[LatencySensitive.String()], 45*100*sim.Microsecond; got != want {
		t.Fatalf("latency wait = %v, want %v", got, want)
	}
	if got := w[Throughput.String()]; got != 0 {
		t.Fatalf("throughput wait = %v with no throughput tenant", got)
	}
}

// enqueueCostN is enqueueN with an explicit DRR cost per request.
func (r *rig) enqueueCostN(t *Tenant, cost, n int) {
	for i := 0; i < n; i++ {
		enqueue(r.sc, t, cost, func() {
			r.eng.After(r.service, func() {
				r.inflight--
				r.pump()
			})
		})
	}
}

func TestLargeCostDispatchesFromIdle(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	a := sc.AddTenant("a", Throughput, 1)
	r := newRig(eng, sc, 1, 10*sim.Microsecond)
	// Cost far beyond any fixed crediting-pass budget: the deficit jump
	// must cover it in one selection, or the engine deadlocks.
	r.enqueueCostN(a, 10000, 3)
	r.pump()
	eng.Run()
	if a.Dispatched != 3 {
		t.Fatalf("dispatched %d of 3 large-cost requests", a.Dispatched)
	}
}
