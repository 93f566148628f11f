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
	r := &rig{eng: eng, sc: sc, slots: slots, service: service}
	sc.SetKick(r.pump)
	return r
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
		r.sc.Enqueue(t, 1, func() {
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
		if tn.Backlog() == 0 {
			t.Fatalf("tenant %s drained; shares are no longer comparable", tn.Name())
		}
		share := float64(tn.Dispatched) / float64(total)
		want := float64(tn.Weight()) / 7
		if share < want*0.9 || share > want*1.1 {
			t.Errorf("tenant %s got share %.3f, want %.3f ±10%%", tn.Name(), share, want)
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

func TestRateCapEnforced(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	capped := sc.AddTenant("capped", Throughput, 1)
	capped.SetRateLimit(10000, 1) // 10 ops per millisecond
	r := newRig(eng, sc, 8, 1*sim.Microsecond)
	r.enqueueN(capped, 1000)
	r.pump()
	eng.RunUntil(5 * sim.Millisecond)
	// 5ms at 10 ops/ms is ~50 dispatches plus the burst allowance; the
	// device is far faster, so only the bucket can be the limiter.
	if capped.Dispatched < 45 || capped.Dispatched > 60 {
		t.Fatalf("capped tenant dispatched %d in 5ms, want ~50", capped.Dispatched)
	}
}

func TestRateCapDoesNotStealFromOthers(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	capped := sc.AddTenant("capped", Throughput, 8)
	free := sc.AddTenant("free", Throughput, 1)
	capped.SetRateLimit(1000, 1)
	r := newRig(eng, sc, 1, 2*sim.Microsecond)
	r.enqueueN(capped, 5000)
	r.enqueueN(free, 5000)
	r.pump()
	eng.RunUntil(4 * sim.Millisecond)
	// The uncapped tenant must absorb the bandwidth the capped tenant's
	// bucket refuses, despite its lower weight.
	if free.Dispatched < 10*capped.Dispatched {
		t.Fatalf("uncapped tenant got %d vs capped %d; cap should free the queue",
			free.Dispatched, capped.Dispatched)
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

func TestWaitHistogramRecords(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	a := sc.AddTenant("a", LatencySensitive, 1)
	r := newRig(eng, sc, 1, 100*sim.Microsecond)
	r.enqueueN(a, 10)
	r.pump()
	eng.Run()
	if a.Wait.Count() != 10 {
		t.Fatalf("wait samples = %d, want 10", a.Wait.Count())
	}
	// The 10th request waited behind nine 100µs services.
	if a.Wait.Max() < int64(800*sim.Microsecond) {
		t.Fatalf("max wait %d implausibly low", a.Wait.Max())
	}
	tbl := sc.WaitTable("waits")
	if tbl.Rows() != 1 {
		t.Fatal("wait table missing tenant row")
	}
}

// enqueueCostN is enqueueN with an explicit DRR cost per request.
func (r *rig) enqueueCostN(t *Tenant, cost, n int) {
	for i := 0; i < n; i++ {
		r.sc.Enqueue(t, cost, func() {
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

func TestEnqueuePastLimitRejected(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	a := sc.AddTenant("a", Throughput, 1)
	a.SetQueueLimit(4)
	rejects := 0
	a.OnReject(func() { rejects++ })
	// No rig attached: nothing drains, so the 5th..10th enqueues must be
	// rejected, not backlogged.
	admitted := 0
	for i := 0; i < 10; i++ {
		if sc.Enqueue(a, 3, func() {}) {
			admitted++
		}
	}
	if admitted != 4 || a.Enqueued != 4 {
		t.Fatalf("admitted %d (counter %d), want 4", admitted, a.Enqueued)
	}
	if a.Rejected != 6 || rejects != 6 {
		t.Fatalf("rejected %d (callback %d), want 6", a.Rejected, rejects)
	}
	if a.BacklogOps() != 4 {
		t.Fatalf("backlog ops %d, want 4", a.BacklogOps())
	}
	// Backlog reports cost units, not ops: 4 requests at cost 3.
	if a.Backlog() != 12 {
		t.Fatalf("backlog cost %d, want 12", a.Backlog())
	}
	if sc.Backlog() != 4 {
		t.Fatalf("scheduler backlog (ops) %d, want 4", sc.Backlog())
	}
	// Draining one slot readmits exactly one request.
	if d, ok := next(sc); !ok {
		t.Fatal("nothing dispatchable")
	} else {
		d()
	}
	if a.Backlog() != 9 {
		t.Fatalf("backlog cost after pop %d, want 9", a.Backlog())
	}
	if !sc.Enqueue(a, 1, func() {}) {
		t.Fatal("enqueue below restored limit rejected")
	}
	if sc.Enqueue(a, 1, func() {}) {
		t.Fatal("enqueue at restored limit admitted")
	}
}

func TestQueueLimitComposesWithRateCap(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	capped := sc.AddTenant("capped", Throughput, 1)
	capped.SetRateLimit(1000, 1) // 1 op/ms
	capped.SetQueueLimit(2)
	r := newRig(eng, sc, 8, 1*sim.Microsecond)
	// Admission control over an empty bucket: the queue absorbs up to
	// its limit while tokens refill; overflow is rejected immediately
	// instead of growing the backlog.
	r.enqueueN(capped, 20)
	if capped.Rejected == 0 {
		t.Fatal("no rejects despite empty bucket and full queue")
	}
	if capped.BacklogOps() > 2 {
		t.Fatalf("backlog %d exceeds queue limit 2", capped.BacklogOps())
	}
	eng.RunUntil(10 * sim.Millisecond)
	// ~1 op/ms for 10ms plus the burst: the admitted requests drain on
	// the bucket's schedule; rejected ones never run.
	if capped.Dispatched+int64(capped.BacklogOps()) != capped.Enqueued {
		t.Fatalf("admitted %d != dispatched %d + queued %d",
			capped.Enqueued, capped.Dispatched, capped.BacklogOps())
	}
}

func TestRateRefillAtTimeBoundaries(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	a := sc.AddTenant("a", Throughput, 1)
	a.SetRateLimit(1000, 1) // exactly one token per millisecond
	r := newRig(eng, sc, 8, 1*sim.Microsecond)
	r.enqueueN(a, 3)
	r.pump()

	// t=0: only the burst token dispatches.
	if a.Dispatched != 1 {
		t.Fatalf("at t=0 dispatched %d, want 1 (burst)", a.Dispatched)
	}
	// Just before the refill boundary nothing more may run; just after
	// it exactly one more op does. The armed wake-up timer must land in
	// (1ms, ~1ms+ε], not at the boundary's open edge.
	eng.RunUntil(999 * sim.Microsecond)
	if a.Dispatched != 1 {
		t.Fatalf("before 1ms boundary dispatched %d, want 1", a.Dispatched)
	}
	eng.RunUntil(1100 * sim.Microsecond)
	if a.Dispatched != 2 {
		t.Fatalf("after 1ms boundary dispatched %d, want 2", a.Dispatched)
	}
	eng.RunUntil(2100 * sim.Microsecond)
	if a.Dispatched != 3 {
		t.Fatalf("after 2ms boundary dispatched %d, want 3", a.Dispatched)
	}

	// Refill at the same instant is a no-op (now <= lastRefill must not
	// mint tokens), and long idling clamps at the burst, not rate×idle.
	if got := a.Tokens(); got >= 1 {
		t.Fatalf("tokens %v immediately after dispatch, want < 1", got)
	}
	eng.RunUntil(50 * sim.Millisecond)
	if got := a.Tokens(); got != 1 {
		t.Fatalf("tokens after long idle = %v, want clamped at burst 1", got)
	}
}

func TestRateCapCountsOpsNotCost(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	capped := sc.AddTenant("capped", Throughput, 1)
	capped.SetRateLimit(10000, 1) // 10 ops per millisecond, in OPS
	r := newRig(eng, sc, 8, 1*sim.Microsecond)
	// Each op billed 16 DRR cost units (a write on a stack with
	// WriteCost 16): the cap must still deliver ~10 ops/ms, and a
	// burst smaller than the cost must not livelock the wake-up timer.
	r.enqueueCostN(capped, 16, 1000)
	r.pump()
	eng.RunUntil(5 * sim.Millisecond)
	if capped.Dispatched < 45 || capped.Dispatched > 60 {
		t.Fatalf("capped tenant dispatched %d in 5ms, want ~50 ops regardless of cost", capped.Dispatched)
	}
}
