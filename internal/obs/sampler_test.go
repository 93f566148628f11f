package obs

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// runSampled drives a sampler for n ticks of virtual time: the mutate
// hook runs between consecutive ticks (at the half-interval offset), so
// every tick observes the state the previous mutation left.
func runSampled(s *Sampler, n int, mutate func(tick int)) {
	eng := sim.NewEngine()
	s.Start(eng, 0)
	if mutate != nil {
		eng.Go(func(p *sim.Proc) {
			p.Sleep(s.Interval() / 2)
			for i := 0; i < n; i++ {
				mutate(i)
				p.Sleep(s.Interval())
			}
		})
	}
	eng.Schedule(sim.Time(n)*s.Interval()+s.Interval()/2, s.Stop)
	eng.Run()
}

// TestSamplerStartKeepsOriginPhase: a sampler started late ticks on the
// phase it has had since its origin, from the first such instant after
// the start.
func TestSamplerStartKeepsOriginPhase(t *testing.T) {
	s := NewSampler(sim.Millisecond)
	s.AddGauge("g", func() float64 { return 1 })
	eng := sim.NewEngine()
	const origin = 300 * sim.Microsecond
	eng.Schedule(2500*sim.Microsecond, func() { s.Start(eng, origin) })
	eng.Schedule(5*sim.Millisecond, s.Stop)
	eng.Run()
	d := s.Dump()
	pts := d.Series[0].Points
	if d.Ticks != 2 || pts[0].T != 3300*sim.Microsecond || pts[1].T != 4300*sim.Microsecond {
		t.Fatalf("%d ticks at %v, want 2 at 3.3 and 4.3 ms", d.Ticks, pts)
	}
}

// TestSamplerCounterDeltasAcrossWrap: counter rates stay exact after
// the ring wraps — the pre-wrap raw value is gone, but consecutive
// surviving points still difference correctly.
func TestSamplerCounterDeltasAcrossWrap(t *testing.T) {
	s := NewSampler(sim.Millisecond)
	var total float64
	s.AddCounter("c", func() float64 { return total })

	const ticks = ringCapacity + 6
	runSampled(s, ticks, func(i int) { total += float64((i + 1) * 100) })

	if s.Dump().Ticks != ticks {
		t.Fatalf("ticks = %d, want %d", s.Dump().Ticks, ticks)
	}
	pts := s.find("c").last(ticks)
	if len(pts) != ringCapacity {
		t.Fatalf("ring holds %d points, want capacity %d", len(pts), ringCapacity)
	}
	// Ticks 7..ticks survive; tick k holds the cumulative sum
	// 100·(1+…+k).
	for i, p := range pts {
		k := float64(i + 7)
		if want := 50 * k * (k + 1); p.V != want {
			t.Fatalf("point %d = %v, want %v", i, p.V, want)
		}
	}
	d := s.Dump()
	if d.Ticks != ticks {
		t.Fatalf("dump ticks = %d", d.Ticks)
	}
	var sd *SeriesData
	for i := range d.Series {
		if d.Series[i].Name == "c" {
			sd = &d.Series[i]
		}
	}
	if sd == nil || sd.Kind != KindCounter {
		t.Fatalf("series c missing or wrong kind: %+v", sd)
	}
	// Rates are per second of virtual time: tick 8's delta of 800 over
	// 1ms = 800k/s, and 100 more every tick after.
	if len(sd.Rates) != ringCapacity-1 {
		t.Fatalf("rates = %d points, want %d", len(sd.Rates), ringCapacity-1)
	}
	for i, r := range sd.Rates {
		if want := float64(i+8) * 100 * 1000; math.Abs(r.V-want) > 1e-6 {
			t.Fatalf("rate %d = %v, want %v", i, r.V, want)
		}
	}
}

// TestSamplerHistDeltas: histogram probes export per-interval
// statistics diffed from the cumulative histogram, including across a
// tick that records nothing.
func TestSamplerHistDeltas(t *testing.T) {
	s := NewSampler(sim.Millisecond)
	h := &metrics.Histogram{}
	s.AddHist("lat", func() *metrics.Histogram { return h })

	runSampled(s, 3, func(i int) {
		switch i {
		case 0:
			h.Record(1000)
			h.Record(3000)
		case 1: // idle interval: all stats must read zero, not repeat
		case 2:
			h.Record(2000)
		}
	})

	count := s.find("lat.count").last(3)
	if len(count) != 3 {
		t.Fatalf("count points = %d, want 3", len(count))
	}
	for i, want := range []float64{2, 0, 1} {
		if count[i].V != want {
			t.Fatalf("interval %d count = %v, want %v", i, count[i].V, want)
		}
	}
	mean := s.find("lat.mean_us").last(3)
	if mean[0].V != 2 || mean[1].V != 0 || mean[2].V != 2 {
		t.Fatalf("mean_us = %v, want [2 0 2]", mean)
	}
	// The last interval's min must be the interval's own value, not the
	// cumulative minimum from the first interval.
	min := s.find("lat.min_us").last(1)
	if min[0].V < 1.5 {
		t.Fatalf("interval min_us = %v, want the interval's own ~2", min[0].V)
	}
}

// TestSamplerStopHaltsTicks: a stopped sampler must not reschedule —
// otherwise eng.Run() never drains.
func TestSamplerStopHaltsTicks(t *testing.T) {
	s := NewSampler(sim.Millisecond)
	s.AddGauge("g", func() float64 { return 1 })
	runSampled(s, 5, nil) // runSampled returning at all proves the stop
	if got := s.Dump().Ticks; got != 5 {
		t.Fatalf("ticks = %d, want 5", got)
	}
}

// TestSamplerNilSafety: a nil sampler is inert everywhere the fabric
// threads one.
func TestSamplerNilSafety(t *testing.T) {
	var s *Sampler
	s.AddGauge("g", func() float64 { return 1 })
	s.AddCounter("c", func() float64 { return 1 })
	s.AddHist("h", func() *metrics.Histogram { return nil })
	s.OnSample(func(sim.Time) {})
	s.Start(sim.NewEngine(), 0)
	s.Stop()
	if d := s.Dump(); d.Ticks != 0 || d.Series != nil {
		t.Fatal("nil sampler not inert")
	}
}

// TestSamplerTickAllocatesNothing: once its windows are warm, a tick
// that reads gauges and counters and evaluates one watch of each kind
// allocates nothing — no series is looked up or copied out per tick.
// The counters advance and no watch trips, so every watch runs its
// full evaluation and emits nothing.
func TestSamplerTickAllocatesNothing(t *testing.T) {
	s := NewSampler(sim.Millisecond)
	var total float64
	zero := func() float64 { return 0 }
	s.AddCounter("errs", zero)
	s.AddCounter("total", func() float64 { total += 100; return total })
	s.AddGauge("svc", func() float64 { return 100 })
	m := NewMonitor(s, nil)
	m.WatchSLO("slo", "errs", "total", 0.05, "")
	m.WatchDrift("drift", "svc", "")
	m.WatchRateFraction(EventAdmissionCollapse, "adm", "errs", "total", 0.5, "")

	eng := sim.NewEngine()
	s.Start(eng, 0)
	for range ringCapacity + longWindow {
		eng.Step()
	}
	if got := testing.AllocsPerRun(200, func() { eng.Step() }); got != 0 {
		t.Fatalf("a sampler tick allocates %v times, want 0", got)
	}
	if n := len(m.Events()); n != 0 {
		t.Fatalf("a watch fired %d events; the measured ticks must emit none", n)
	}
}
