package sched

import (
	"testing"

	"repro/internal/ftl"
	"repro/internal/sim"
)

// fakeGCControl records the control traffic a scheduler sends to its
// device and reports a set urgency (the adaptive lease policy's input).
type fakeGCControl struct {
	defers  int
	refused int
	resumes int
	until   sim.Time
	refuse  bool
	urgency ftl.GCUrgency
}

func (c *fakeGCControl) GCUrgency() ftl.GCUrgency { return c.urgency }

func (c *fakeGCControl) DeferGC(deadline sim.Time) bool {
	c.defers++
	if c.refuse {
		c.refused++
		return false
	}
	c.until = deadline
	return true
}

func (c *fakeGCControl) ResumeGC() { c.resumes++ }

// TestGCCoordinationLeasesAndReleases checks the host policy: a
// latency-sensitive backlog leases a deferral, a fresh lease is not
// re-requested per enqueue, and draining the backlog releases it.
func TestGCCoordinationLeasesAndReleases(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.GCCoordinate = true
	sc := New(eng, cfg)
	ctl := &fakeGCControl{}
	sc.SetGCControl(ctl)
	r := newRig(eng, sc, 1, 100*sim.Microsecond)
	ls := sc.AddTenant("ls", LatencySensitive, 1)
	tp := sc.AddTenant("tp", Throughput, 1)

	// Throughput work alone must not lease anything.
	r.enqueueN(tp, 4)
	if ctl.defers != 0 {
		t.Fatalf("throughput backlog leased a deferral (%d)", ctl.defers)
	}

	// The first latency request leases; the burst right behind it rides
	// the same fresh lease.
	r.enqueueN(ls, 3)
	if ctl.defers != 1 {
		t.Fatalf("defers = %d after a latency burst, want 1 (lease reuse)", ctl.defers)
	}
	if want := eng.Now() + gcDeferSlice; ctl.until != want {
		t.Fatalf("lease deadline = %v, want %v", ctl.until, want)
	}
	if !leased(sc) {
		t.Fatal("no active lease after a granted defer")
	}

	// Draining the latency backlog releases the lease exactly once.
	r.pump()
	eng.Run()
	if ctl.resumes != 1 {
		t.Fatalf("resumes = %d after the burst drained, want 1", ctl.resumes)
	}
	if leased(sc) {
		t.Fatal("lease still active after resume")
	}
	g := sc.GCCoord()
	if g.HostRequests != int64(ctl.defers) || g.HostResumes != int64(ctl.resumes) {
		t.Fatalf("ledger %+v disagrees with control traffic (%d/%d)", g, ctl.defers, ctl.resumes)
	}
}

// TestGCCoordinationHandlesRefusal checks that a device at its floor
// refusing the lease does not wedge the scheduler. The device counts its
// refusals (metrics.GCCoord.Refused is the device side's); the host
// ledger counts every request it sent, refused or not.
func TestGCCoordinationHandlesRefusal(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.GCCoordinate = true
	sc := New(eng, cfg)
	ctl := &fakeGCControl{refuse: true}
	sc.SetGCControl(ctl)
	r := newRig(eng, sc, 1, 100*sim.Microsecond)
	ls := sc.AddTenant("ls", LatencySensitive, 1)

	r.enqueueN(ls, 2)
	if ctl.defers == 0 {
		t.Fatal("no defer attempted")
	}
	if leased(sc) {
		t.Fatal("lease recorded active despite device refusal")
	}
	if ctl.refused == 0 {
		t.Fatal("the device refused nothing")
	}
	if g := sc.GCCoord(); g.HostRequests != int64(ctl.defers) {
		t.Fatalf("ledger HostRequests = %d, device saw %d requests", g.HostRequests, ctl.defers)
	}
	r.pump()
	eng.Run()
	if ctl.resumes != 0 {
		t.Fatalf("resumed a lease that was never granted (%d)", ctl.resumes)
	}
}

// TestGCLeaseAdaptiveSizing checks the urgency-driven lease policy: a
// relaxed device gets the full slice, an elevated one half, and an
// urgent one is not asked at all (declined locally, with backoff, and
// accounted in the ledger).
func TestGCLeaseAdaptiveSizing(t *testing.T) {
	lease := func(urgency ftl.GCUrgency) (*Scheduler, *fakeGCControl, sim.Time) {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.GCCoordinate = true
		cfg.GCLeaseAdaptive = true
		sc := New(eng, cfg)
		ctl := &fakeGCControl{urgency: urgency}
		sc.SetGCControl(ctl)
		r := newRig(eng, sc, 1, 100*sim.Microsecond)
		ls := sc.AddTenant("ls", LatencySensitive, 1)
		r.enqueueN(ls, 2)
		return sc, ctl, eng.Now()
	}

	sc, ctl, now := lease(ftl.GCRelaxed)
	if ctl.defers != 1 || ctl.until != now+gcDeferSlice {
		t.Fatalf("relaxed: defers=%d until=%v, want full 1ms slice", ctl.defers, ctl.until)
	}
	if g := sc.GCCoord(); g.HostDeclined != 0 {
		t.Fatalf("relaxed: declined %d leases", g.HostDeclined)
	}

	_, ctl, now = lease(ftl.GCElevated)
	if ctl.defers != 1 || ctl.until != now+gcDeferSlice/2 {
		t.Fatalf("elevated: defers=%d until=%v, want half slice", ctl.defers, ctl.until)
	}

	sc, ctl, _ = lease(ftl.GCUrgent)
	if ctl.defers != 0 {
		t.Fatalf("urgent: device was asked %d times, want 0 (declined locally)", ctl.defers)
	}
	if g := sc.GCCoord(); g.HostDeclined == 0 {
		t.Fatal("urgent: decline not accounted")
	}
	if leased(sc) {
		t.Fatal("urgent: lease recorded active without a grant")
	}
}

// TestGCCoordinationOffByDefault: without GCCoordinate the scheduler
// must never touch the control surface, even when one is wired.
func TestGCCoordinationOffByDefault(t *testing.T) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	ctl := &fakeGCControl{}
	sc.SetGCControl(ctl)
	r := newRig(eng, sc, 1, 100*sim.Microsecond)
	ls := sc.AddTenant("ls", LatencySensitive, 1)
	r.enqueueN(ls, 4)
	r.pump()
	eng.Run()
	if ctl.defers != 0 || ctl.resumes != 0 {
		t.Fatalf("control traffic (%d defers, %d resumes) with coordination off", ctl.defers, ctl.resumes)
	}
}

// leased reports whether sc holds a GC deferral lease on its device.
func leased(sc *Scheduler) bool { return sc.gcDeferUntil > sc.eng.Now() }
