package ftl

import (
	"testing"

	"repro/internal/sim"
)

// coordConfig is a write-through config with room between the low
// watermark (3) and the defer floor (the reserve, 1): deferral has a
// real suppression zone (free = 2) before the floor forces collection.
func coordConfig() Config {
	cfg := writeThroughConfig()
	cfg.GCLowWater = 3
	cfg.GCHighWater = 5
	return cfg
}

// fillSeq writes lpns [0, n) once, so later overwrites create garbage.
func fillSeq(t *testing.T, eng *sim.Engine, f *PageFTL, n int64) {
	t.Helper()
	for lpn := int64(0); lpn < n; lpn++ {
		mustWrite(t, eng, f, lpn, byte(lpn))
	}
}

// submitWrites queues n overwrites of lpns drawn by pick without
// running the engine (a DeferGC deadline arms a timer, so running to
// idle between writes would fast-forward straight past the session).
// It returns counters the write callbacks settle once the engine runs.
func submitWrites(f *PageFTL, n int, pick func(i int) int64) (completed *int, firstErr *error) {
	completed, firstErr = new(int), new(error)
	for i := 0; i < n; i++ {
		f.WriteLPN(pick(i), pageData(f.PageSize(), byte(i)), func(err error) {
			*completed++
			if err != nil && *firstErr == nil {
				*firstErr = err
			}
		})
	}
	return completed, firstErr
}

// TestGCDeferralStopsAtFloorUnderPressure is the safety property of the
// host→device half: a host that holds a deferral and keeps writing
// cannot starve the device. The floor forces collection, every write
// completes (no ErrDeviceFull), and the observed headroom never drops
// below the GC reserve.
func TestGCDeferralStopsAtFloorUnderPressure(t *testing.T) {
	cfg := coordConfig()
	eng, f := newTinyFTL(t, cfg)
	span := int64(64)
	fillSeq(t, eng, f, span)

	if !f.DeferGC(eng.Now() + sim.Second) {
		t.Fatal("DeferGC refused on a healthy device")
	}
	// Sustained random overwrites under the deferral: far more write
	// traffic than the free pools can absorb without collecting.
	rng := sim.NewRNG(7)
	completed, firstErr := submitWrites(f, 300, func(int) int64 { return rng.Int63n(span) })
	eng.Run()

	if *firstErr != nil {
		t.Fatalf("write failed under deferral pressure: %v", *firstErr)
	}
	if *completed != 300 {
		t.Fatalf("completed %d of 300 writes — deferral starved the device", *completed)
	}
	coord := f.GCCoord()
	if coord.Defers != 1 {
		t.Fatalf("Defers = %d, want 1", coord.Defers)
	}
	if coord.FloorHits == 0 || coord.ForcedResumes == 0 {
		t.Fatalf("floor never engaged under pressure: %+v", coord)
	}
	ppb := f.Array().PagesPerBlock()
	if coord.MinHeadroomPages < cfg.gcReserve*ppb {
		t.Errorf("deferral starved the free pool below the reserve: min headroom %d pages, reserve %d pages",
			coord.MinHeadroomPages, cfg.gcReserve*ppb)
	}
	if f.Stats().GCErases == 0 {
		t.Error("no GC erases despite floor hits — forced collection never reclaimed")
	}
	// Every page must still read back (the device stayed consistent
	// through forced collection).
	for lpn := int64(0); lpn < span; lpn++ {
		if mustRead(t, eng, f, lpn) == nil {
			t.Fatalf("lpn %d vanished", lpn)
		}
	}
}

// TestGCDeferralParksAndExpires drives chips below the low watermark
// while a deferral session is active — collection must stay parked —
// then lets the deadline lapse and checks that GC resumed on its own.
func TestGCDeferralParksAndExpires(t *testing.T) {
	eng, f := newTinyFTL(t, coordConfig())
	span := int64(64)
	fillSeq(t, eng, f, span)
	if got := f.Stats().GCErases; got != 0 {
		t.Fatalf("GC ran during the plain fill (erases = %d); the fixture needs a quiet start", got)
	}

	deadline := eng.Now() + 50*sim.Millisecond
	if !f.DeferGC(deadline) {
		t.Fatal("DeferGC refused")
	}
	// Enough overwrites to pull chips below the low watermark, few
	// enough to stay above the floor. They finish in a few virtual
	// milliseconds, well before the deadline.
	completed, firstErr := submitWrites(f, 24, func(i int) int64 { return int64(i) })
	// Probe just before the deadline: the session must still be parked.
	var erasesBefore int64
	var activeBefore, deferredBefore = -1, false
	eng.Schedule(deadline-sim.Millisecond, func() {
		erasesBefore = f.Stats().GCErases
		activeBefore = f.gcBusy
		deferredBefore = f.GCDeferred()
	})
	eng.Run()

	if *firstErr != nil || *completed != 24 {
		t.Fatalf("writes: %d/24 completed, err %v", *completed, *firstErr)
	}
	if !deferredBefore {
		t.Fatal("session not active just before the deadline")
	}
	if erasesBefore != 0 || activeBefore != 0 {
		t.Fatalf("GC ran during an honored deferral (erases %d, active chips %d)", erasesBefore, activeBefore)
	}
	coord := f.GCCoord()
	if coord.MinHeadroomPages < 0 {
		t.Fatal("no chip consulted the deferral — the overwrites never created GC pressure")
	}
	if coord.FloorHits != 0 {
		t.Fatalf("floor hit during the parked phase (%+v); fixture writes too heavy", coord)
	}
	if coord.Expires != 1 {
		t.Fatalf("Expires = %d, want 1 (coord %+v)", coord.Expires, coord)
	}
	if f.GCDeferred() {
		t.Fatal("still deferred after the deadline")
	}
	if f.Stats().GCErases == 0 {
		t.Fatal("GC never resumed after the deadline expired")
	}
}

// TestGCResumeReleasesEarly is the cooperative path: the host releases
// the deferral before the deadline and collection starts immediately.
func TestGCResumeReleasesEarly(t *testing.T) {
	eng, f := newTinyFTL(t, coordConfig())
	span := int64(64)
	fillSeq(t, eng, f, span)

	deadline := eng.Now() + sim.Second
	if !f.DeferGC(deadline) {
		t.Fatal("DeferGC refused")
	}
	completed, firstErr := submitWrites(f, 24, func(i int) int64 { return int64(i) })
	resumeAt := eng.Now() + 20*sim.Millisecond
	var erasesAtResume int64 = -1
	eng.Schedule(resumeAt, func() {
		erasesAtResume = f.Stats().GCErases
		f.ResumeGC()
	})
	eng.Run()

	if *firstErr != nil || *completed != 24 {
		t.Fatalf("writes: %d/24 completed, err %v", *completed, *firstErr)
	}
	if erasesAtResume != 0 {
		t.Fatalf("GC erased %d blocks before the host resumed", erasesAtResume)
	}
	if f.GCDeferred() {
		t.Fatal("still deferred after ResumeGC")
	}
	if f.Stats().GCErases == 0 {
		t.Fatal("GC never ran after ResumeGC")
	}
	if coord := f.GCCoord(); coord.Expires != 0 {
		t.Fatalf("resumed session also counted as expired: %+v", coord)
	}
}

// TestGCDeferRenewalAccounting checks the lease bookkeeping: covered
// deadlines are free, later deadlines renew, past deadlines are
// rejected outright.
func TestGCDeferRenewalAccounting(t *testing.T) {
	eng, f := newTinyFTL(t, coordConfig())
	now := eng.Now()
	if f.DeferGC(now) {
		t.Fatal("a deadline in the past must be refused")
	}
	if !f.DeferGC(now + sim.Millisecond) {
		t.Fatal("fresh defer refused")
	}
	if !f.DeferGC(now + sim.Millisecond/2) {
		t.Fatal("a covered (earlier) deadline is a no-op success")
	}
	if !f.DeferGC(now + 2*sim.Millisecond) {
		t.Fatal("renewal refused")
	}
	coord := f.GCCoord()
	if coord.Defers != 1 || coord.Renewals != 1 {
		t.Fatalf("Defers/Renewals = %d/%d, want 1/1", coord.Defers, coord.Renewals)
	}
	if !f.GCDeferred() {
		t.Fatal("not deferred after granted leases")
	}
	eng.Run() // both expiry timers fire; only the final one expires the session
	coord = f.GCCoord()
	if coord.Expires != 1 {
		t.Fatalf("Expires = %d, want exactly 1", coord.Expires)
	}
	if f.GCDeferred() {
		t.Fatal("still deferred after expiry")
	}
}
