package sim

import "testing"

// Substrate microbenchmarks and their allocation gates. The three
// operations every layer above is built from — schedule and run an
// event, reserve a server, sleep and wake a process — allocate nothing
// once the event queue has reached its working depth and the callbacks
// are bound. Allocation counts are deterministic here, so the gates are
// exact.

// queueDepth is how many events the harnesses keep pending, so push and
// pop sift through a queue as deep as a busy fabric's rather than an
// empty one.
const queueDepth = 1024

// scheduleStep returns one Schedule→Step cycle over a queue held at
// queueDepth pending events, every one a pre-bound fn.
func scheduleStep() func() {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < queueDepth; i++ {
		e.Schedule(Time(i), fn)
	}
	return func() {
		e.Schedule(e.Now()+queueDepth, fn)
		e.Step()
	}
}

// serverUse returns one Use→Step cycle: a reservation with a pre-bound
// done behind queueDepth-1 others on the same server.
func serverUse() func() {
	e := NewEngine()
	s := NewServer(e, "bench")
	done := func(start, end Time) {}
	for i := 0; i < queueDepth; i++ {
		s.Use(1, "op", done)
	}
	return func() {
		s.Use(1, "op", done)
		e.Step()
	}
}

// serverUseHeld is serverUse for work held back since an earlier
// instant (Server.UseHeld, a suspending flash LUN's held commands).
func serverUseHeld() func() {
	e := NewEngine()
	s := NewServer(e, "bench")
	done := func(start, end Time) {}
	for i := 0; i < queueDepth; i++ {
		s.Use(1, "op", done)
	}
	return func() {
		s.UseHeld(e.Now()/2, 1, "op", done)
		e.Step()
	}
}

// sleepRoundTrip returns one wake-up of a sleeping process (event →
// hand-off → the process runs and sleeps again → hand-back), and a stop
// function that lets the process finish and drains the engine.
func sleepRoundTrip() (trip, stop func()) {
	e := NewEngine()
	stopped := false
	e.Go(func(p *Proc) {
		for !stopped {
			p.Sleep(1)
		}
	})
	e.Step() // start the process; it is now asleep
	return func() { e.Step() }, func() {
		stopped = true
		e.Run()
	}
}

func BenchmarkScheduleStep(b *testing.B) {
	cycle := scheduleStep()
	b.ReportAllocs()
	for b.Loop() {
		cycle()
	}
}

func BenchmarkServerUse(b *testing.B) {
	cycle := serverUse()
	b.ReportAllocs()
	for b.Loop() {
		cycle()
	}
}

func BenchmarkProcSleepRoundTrip(b *testing.B) {
	trip, stop := sleepRoundTrip()
	b.ReportAllocs()
	for b.Loop() {
		trip()
	}
	b.StopTimer()
	stop()
}

func TestSteadyStateAllocatesNothing(t *testing.T) {
	trip, stop := sleepRoundTrip()
	defer stop()
	for _, c := range []struct {
		name  string
		cycle func()
	}{
		{"Schedule→Step of a pre-bound fn", scheduleStep()},
		{"Server.Use with a pre-bound done", serverUse()},
		{"Server.UseHeld with a pre-bound done", serverUseHeld()},
		{"Proc.Sleep round trip", trip},
	} {
		if got := testing.AllocsPerRun(1000, c.cycle); got != 0 {
			t.Errorf("%s: %v allocs per cycle, want exactly 0", c.name, got)
		}
	}
}
