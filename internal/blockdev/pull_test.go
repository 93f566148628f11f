package blockdev

import (
	"math/rand/v2"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// TestPullOnlyLeavesNoSlotIdle pins the invariant that lets the device
// queue be pulled and never kicked: pump runs only where a batch reaches
// the queue and where completions free slots, and that is enough. At the
// end of every instant either every device-queue slot is taken or no
// tenant — the fallback included — holds a queued request, and no flush
// is held in the stack while a slot is free. The run is seeded: a
// volatile-buffered device that collects, a GC-coordinating scheduler
// with two tenants of each class, and untagged traffic, each source
// issuing reads, writes and flushes from several chains at once.
func TestPullOnlyLeavesNoSlotIdle(t *testing.T) {
	eng := sim.NewEngine()
	d, err := ssd.Build(eng, ssd.Enterprise2012, ssd.Options{
		Channels: 1, ChipsPerChannel: 2, BlocksPerPlane: 16, PagesPerBlock: 8,
		BufferPages: 8, BufferVolatile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := d.(*ssd.Device)
	const depth = 4
	s, err := New(eng, dev, Config{Mode: MultiQueue, CPUs: 2, QueueDepth: depth, WriteCost: 4})
	if err != nil {
		t.Fatal(err)
	}
	sc := sched.New(eng, sched.Config{GCCoordinate: true, GCLeaseAdaptive: true})
	s.AttachScheduler(sc)
	tenants := []*sched.Tenant{
		sc.AddTenant("ls0", sched.LatencySensitive, 1),
		sc.AddTenant("ls1", sched.LatencySensitive, 2),
		sc.AddTenant("tp0", sched.Throughput, 1),
		sc.AddTenant("tp1", sched.Throughput, 2),
	}
	queued := func() int64 {
		n := s.fallback.Enqueued - s.fallback.Dispatched
		for _, tn := range tenants {
			n += tn.Enqueued - tn.Dispatched
		}
		return n
	}

	// Every page written once, so the overwrites below make the device
	// collect.
	capacity := dev.Capacity()
	for lpn := int64(0); lpn < capacity; lpn++ {
		s.Submit(0, Request{Op: OpWrite, LPN: lpn, Data: page(byte(lpn))})
	}
	eng.Run()

	const chains, opsPerChain = 3, 300
	rng := rand.New(rand.NewPCG(58, 1))
	sources := append(tenants, nil) // nil: untagged, the fallback tenant
	completed, want := 0, len(sources)*chains*opsPerChain
	for i, tn := range sources {
		for c := 0; c < chains; c++ {
			left := opsPerChain
			var next func()
			next = func() {
				req := Request{LPN: rng.Int64N(capacity), Tenant: tn}
				switch r := rng.IntN(10); {
				case r < 5:
					req.Op = OpRead
				case r < 9:
					req.Op, req.Data = OpWrite, page(byte(req.LPN))
				default:
					req.Op = OpFlush
				}
				req.Done = func(_ []byte, err error) {
					if err != nil {
						t.Errorf("op %d: %v", req.Op, err)
					}
					completed++
					if left--; left > 0 {
						// Half the time the chain goes again at once, so
						// submissions land on the instants completions
						// free slots.
						eng.After(sim.Time(rng.IntN(2))*sim.Time(rng.IntN(40))*sim.Microsecond, next)
					}
				}
				s.Submit(i%2, req)
			}
			eng.Schedule(eng.Now(), next)
		}
	}

	// Step the engine, taking the state before every step: when a step
	// moves the clock, the state taken before it is the one the instant
	// just ended in.
	var instants, saturated, heldSeen int
	for {
		at, free, held, n := eng.Now(), depth-s.outstanding, s.flushHeld, queued()
		more := eng.Step()
		if more && eng.Now() == at {
			continue
		}
		instants++
		if free == 0 {
			saturated++
		}
		if held {
			heldSeen++
		}
		if free > 0 && n > 0 {
			t.Fatalf("at %v: %d of %d slots free while %d requests are queued", at, free, depth, n)
		}
		if free > 0 && held {
			t.Fatalf("at %v: %d of %d slots free while a flush is held", at, free, depth)
		}
		if !more {
			break
		}
	}
	if completed != want {
		t.Fatalf("completed %d of %d requests", completed, want)
	}
	if dev.FTL().Stats().GCErases == 0 {
		t.Fatal("the device never collected")
	}
	if sc.GCDeferrals == 0 {
		t.Error("no throughput request was deferred for GC: the run never exercised eligible's deferral")
	}
	if sc.GCCoord().HostRequests == 0 {
		t.Error("the scheduler leased no GC deferral")
	}
	if saturated == 0 || heldSeen == 0 {
		t.Errorf("over %d instants the queue was full at %d and a flush held at %d: the run never loaded the gate", instants, saturated, heldSeen)
	}
}
