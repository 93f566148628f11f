package obs

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// runSampled drives a sampler for n ticks of virtual time: the mutate
// hook runs between consecutive ticks (at the half-interval offset), so
// every tick observes the state the previous mutation left.
func runSampled(s *Sampler, n int, mutate func(tick int)) {
	eng := sim.NewEngine()
	s.Start(eng)
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

// TestSamplerCounterDeltasAcrossWrap: counter rates stay exact after
// the ring wraps — the pre-wrap raw value is gone, but consecutive
// surviving points still difference correctly.
func TestSamplerCounterDeltasAcrossWrap(t *testing.T) {
	s := NewSampler(sim.Millisecond)
	var total float64
	s.AddCounter("c", func() float64 { return total })

	const ticks = ringCapacity + 6
	runSampled(s, ticks, func(i int) { total += float64((i + 1) * 100) })

	if s.Ticks() != ticks {
		t.Fatalf("ticks = %d, want %d", s.Ticks(), ticks)
	}
	pts := s.Last("c", ticks)
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

	count := s.Last("lat.count", 3)
	if len(count) != 3 {
		t.Fatalf("count points = %d, want 3", len(count))
	}
	for i, want := range []float64{2, 0, 1} {
		if count[i].V != want {
			t.Fatalf("interval %d count = %v, want %v", i, count[i].V, want)
		}
	}
	mean := s.Last("lat.mean_us", 3)
	if mean[0].V != 2 || mean[1].V != 0 || mean[2].V != 2 {
		t.Fatalf("mean_us = %v, want [2 0 2]", mean)
	}
	// The last interval's min must be the interval's own value, not the
	// cumulative minimum from the first interval.
	min := s.Last("lat.min_us", 1)
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
	if got := s.Ticks(); got != 5 {
		t.Fatalf("ticks = %d, want 5", got)
	}
}

// TestSamplerPromText: the exposition renders every series with a TYPE
// line, sanitized names, and the necro namespace.
func TestSamplerPromText(t *testing.T) {
	s := NewSampler(sim.Millisecond)
	var n float64
	s.AddCounter("fabric.served", func() float64 { return n })
	s.AddGauge("dev0.cal-ratio", func() float64 { return 2.5 })
	runSampled(s, 2, func(int) { n += 10 })

	text := s.PromText()
	for _, want := range []string{
		"# TYPE necro_fabric_served counter",
		"necro_fabric_served 20",
		"# TYPE necro_dev0_cal_ratio gauge",
		"necro_dev0_cal_ratio 2.5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("PromText missing %q:\n%s", want, text)
		}
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
	s.Start(sim.NewEngine())
	s.Stop()
	if s.Ticks() != 0 || s.Last("g", 1) != nil {
		t.Fatal("nil sampler not inert")
	}
	if d := s.Dump(); d.Series != nil {
		t.Fatal("nil sampler dumped series")
	}
	if s.PromText() != "" {
		t.Fatal("nil sampler rendered text")
	}
}
