package obs

import (
	"testing"

	"repro/internal/sim"
)

// burnRig drives a monitored sampler through a per-tick error plan:
// each tick the total counter advances by 100 and the error counter by
// plan[i] (the plan's last value repeats when ticks outrun it).
type burnRig struct {
	s   *Sampler
	m   *Monitor
	run func(plan []float64, ticks int)
}

func newBurnRig(budget float64) *burnRig {
	s := NewSampler(sim.Millisecond)
	var errs, total float64
	s.AddCounter("errs", func() float64 { return errs })
	s.AddCounter("total", func() float64 { return total })
	m := NewMonitor(s, nil)
	m.WatchSLO("slo", "errs", "total", budget, "")
	rig := &burnRig{s: s, m: m}
	rig.run = func(plan []float64, ticks int) {
		runSampled(s, ticks, func(i int) {
			d := plan[len(plan)-1]
			if i < len(plan) {
				d = plan[i]
			}
			errs += d
			total += 100
		})
	}
	return rig
}

// TestBurnRateFiresAndExplainsOnce: sustained burn above threshold
// fires exactly one alert, which stays firing (no clear, no re-fire)
// while the burn continues.
func TestBurnRateFiresAndExplainsOnce(t *testing.T) {
	rig := newBurnRig(0.05)
	// Budget 0.05, threshold 2: trip at error fraction >= 0.1. Warm the
	// long window (longWindow+1 points) before the burn starts.
	plan := make([]float64, longWindow+1)
	plan = append(plan, 20)
	rig.run(plan, len(plan)+2*longWindow)
	if got := rig.m.Count(EventSLOBurn); got != 1 {
		t.Fatalf("burn events = %d, want exactly 1", got)
	}
	if got := rig.m.Count(EventSLOClear); got != 0 {
		t.Fatalf("clear events = %d, want 0 while burning", got)
	}
	firing := rig.m.Firing()
	if len(firing) != 1 || firing[0] != "slo_burn:slo" {
		t.Fatalf("firing = %v", firing)
	}
}

// TestBurnFromTheFirstTickFiresOnceTheShortWindowFills: a burn that
// runs from the first sampled interval is judged on the long window
// sampled so far as soon as the short window is full, so it fires at
// the short window's first full tick, not the long window's.
func TestBurnFromTheFirstTickFiresOnceTheShortWindowFills(t *testing.T) {
	rig := newBurnRig(0.05)
	rig.run([]float64{20}, 2*longWindow)
	events := rig.m.Events()
	if len(events) != 1 || events[0].Kind != EventSLOBurn {
		t.Fatalf("events = %+v, want one burn", events)
	}
	// The first tick, at 1 ms, is the windows' first point.
	if at, want := events[0].At, sim.Time(shortWindow+1)*sim.Millisecond; at != want {
		t.Fatalf("the burn fired at %v, want %v: the tick that fills the short window", at, want)
	}
}

// TestBurnRateHysteresisNoFlap: an error rate hovering at the firing
// threshold — dipping just below, rising just back — must not flap.
// The alert fires once; it only clears after the rate falls below
// clearFraction×threshold for clearTicks consecutive samples, and a
// hover in between (below trip, above clear) keeps it firing silently.
func TestBurnRateHysteresisNoFlap(t *testing.T) {
	rig := newBurnRig(0.05)
	plan := make([]float64, longWindow+1) // warm the windows
	// Fire: fraction 0.2 = burn 4 in the short window at once, and burn 2
	// over the long window once half of it has burned.
	for i := 0; i < longWindow/2+1; i++ {
		plan = append(plan, 20)
	}
	// Hover around the threshold (burn 2): alternate 11/9 per tick —
	// short-window burns oscillate ~1.8-2.2, never below the clear
	// fraction (1.0). A naive threshold alert would flap every tick.
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			plan = append(plan, 11)
		} else {
			plan = append(plan, 9)
		}
	}
	// Recover: zero errors long enough to clear...
	plan = append(plan, make([]float64, clearTicks+2)...)
	// ...then burn hard again: a second, legitimate alert.
	plan = append(plan, 30, 30, 30, 30)
	rig.run(plan, len(plan))

	if got := rig.m.Count(EventSLOBurn); got != 2 {
		t.Fatalf("burn events = %d, want 2 (fire, hover silently, clear, re-fire)", got)
	}
	if got := rig.m.Count(EventSLOClear); got != 1 {
		t.Fatalf("clear events = %d, want exactly 1", got)
	}
}

// TestDriftWatchLatches: the drift watch arms its baseline from the
// first samples, needs driftConfirm consecutive ticks above threshold
// to fire, and fires exactly once (latched — aging does not heal).
func TestDriftWatchLatches(t *testing.T) {
	s := NewSampler(sim.Millisecond)
	var svc float64 = 100
	s.AddGauge("svc", func() float64 { return svc })
	m := NewMonitor(s, nil)
	m.WatchDrift("drift", "svc", "")

	eng := sim.NewEngine()
	s.Start(eng, 0)
	eng.Go(func(p *sim.Proc) {
		p.Sleep(s.Interval() / 2)
		for i := 0; i < 20; i++ {
			switch {
			case i == 5:
				svc = 200 // 2× baseline: trips after driftConfirm ticks
			case i == 10:
				svc = 100 // recovery must not un-latch or re-arm
			case i == 12:
				svc = 300
			}
			p.Sleep(s.Interval())
		}
	})
	eng.Schedule(21*s.Interval(), s.Stop)
	eng.Run()

	if got := m.Count(EventDrift); got != 1 {
		t.Fatalf("drift events = %d, want 1 (latched)", got)
	}
	ev := m.Events()[0]
	if ev.Kind != EventDrift || ev.Value < 1.9 || ev.Value > 2.1 {
		t.Fatalf("drift event = %+v, want ~2× baseline", ev)
	}
}

// TestWatchThresholds: the rate-fraction watch fires when the
// short-window fraction reaches its threshold and clears after the
// recovery ticks.
func TestWatchThresholds(t *testing.T) {
	s := NewSampler(sim.Millisecond)
	var rejected, submitted float64
	s.AddCounter("rej", func() float64 { return rejected })
	s.AddCounter("sub", func() float64 { return submitted })
	m := NewMonitor(s, nil)
	m.WatchRateFraction(EventAdmissionCollapse, "adm", "rej", "sub", 0.5, "")

	runSampled(s, 10+shortWindow+clearTicks, func(i int) {
		submitted += 100
		switch {
		case i < 4: // healthy: 10% rejects
			rejected += 10
		case i < 8: // collapse: 80% rejects
			rejected += 80
		default: // recovered
			rejected += 10
		}
	})

	if got := m.Count(EventAdmissionCollapse); got != 1 {
		t.Errorf("admission collapse events = %d, want 1", got)
	}
	// The collapse ended: nothing may still be firing after the
	// recovery ticks.
	if firing := m.Firing(); len(firing) != 0 {
		t.Errorf("still firing after recovery: %v", firing)
	}
}

// TestMonitorEventRing: the ring keeps the newest eventRing events
// while Count survives eviction.
func TestMonitorEventRing(t *testing.T) {
	s := NewSampler(sim.Millisecond)
	m := NewMonitor(s, nil)
	const emitted = eventRing + 6
	for i := 0; i < emitted; i++ {
		m.Emit(HealthEvent{Kind: EventLeaseGrant, At: sim.Time(i), Name: "dev0"})
	}
	evs := m.Events()
	if len(evs) != eventRing {
		t.Fatalf("ring holds %d, want %d", len(evs), eventRing)
	}
	if evs[0].At != 6 || evs[eventRing-1].At != emitted-1 {
		t.Fatalf("ring kept %v..%v, want newest 6..%d", evs[0].At, evs[eventRing-1].At, emitted-1)
	}
	if got := m.Count(EventLeaseGrant); got != emitted {
		t.Fatalf("count = %d, want %d despite eviction", got, emitted)
	}
	if evs[0].KindName != "lease_grant" {
		t.Fatalf("kind name = %q", evs[0].KindName)
	}
	// Nil monitor: every accessor inert.
	var nm *Monitor
	nm.Emit(HealthEvent{Kind: EventDrift})
	nm.WatchSLO("x", "a", "b", 0.1, "")
	nm.WatchDrift("x", "a", "")
	if nm.Events() != nil || nm.Count(EventDrift) != 0 || nm.Firing() != nil || nm.Snapshot() != nil {
		t.Fatal("nil monitor not inert")
	}
}

// TestWatchUnknownSeriesPanics: a watch names its series when it is
// added, so a name nobody samples fails there instead of leaving a
// watch that never becomes ready.
func TestWatchUnknownSeriesPanics(t *testing.T) {
	s := NewSampler(sim.Millisecond)
	s.AddCounter("total", func() float64 { return 0 })
	m := NewMonitor(s, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("a watch over an unsampled series was added")
		}
	}()
	m.WatchSLO("slo", "errs", "total", 0.05, "")
}
