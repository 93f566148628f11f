package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestEqualTimesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (ties must fire FIFO)", i, v, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fired Time = -1
	e.Schedule(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("fired at %v, want 150", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	e.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("After(-1) did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all 4 events", fired)
	}
}

func TestRunUntilInclusive(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(25, func() { ran = true })
	e.RunUntil(25)
	if !ran {
		t.Fatal("event at the RunUntil boundary did not run")
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestPending(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if len(e.events) != 2 {
		t.Fatalf("Pending = %d, want 2", len(e.events))
	}
	e.Step()
	if len(e.events) != 1 {
		t.Fatalf("Pending = %d, want 1", len(e.events))
	}
}

// Property: for any set of scheduled delays, events fire in sorted order
// and the clock never goes backwards.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			at := Time(d)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Pop order is the total order (at, seq): the test keeps every pending
// event in a list in schedule order, and each firing must be the head of
// a stable sort of that list by time. Timestamps collide heavily (delays
// of 0..3 ns), handlers schedule further events and server reservations
// while the queue is being drained, and the driver mixes Step with
// RunUntil — which must run exactly the events at or before its bound.
func TestPropertyPopOrderMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		srv := NewServer(e, "s")
		type ref struct {
			at Time
			id int
		}
		var pending []ref // schedule order, so a stable sort by at is the (at, seq) order
		ids, fired, budget := 0, 0, 3000
		var schedule func()
		fire := func(id int) {
			sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
			if len(pending) == 0 || pending[0].id != id || pending[0].at != e.Now() {
				t.Fatalf("seed %d: fired event %d at %v, reference head %+v", seed, id, e.Now(), pending[:min(len(pending), 1)])
			}
			pending = pending[1:]
			fired++
			for n := rng.Intn(3); n > 0 && budget > 0; n-- {
				schedule()
			}
		}
		schedule = func() {
			budget--
			id := ids
			ids++
			if rng.Intn(4) == 0 {
				end := srv.Use(Time(rng.Intn(3)), "", func(start, end Time) {
					if end != e.Now() || start > end {
						t.Fatalf("seed %d: reservation %d done(%v, %v) at %v", seed, id, start, end, e.Now())
					}
					fire(id)
				})
				pending = append(pending, ref{end, id})
				return
			}
			at := e.Now() + Time(rng.Intn(4))
			e.Schedule(at, func() { fire(id) })
			pending = append(pending, ref{at, id})
		}
		for i := 0; i < 200; i++ {
			schedule()
		}
		for len(e.events) > 0 {
			switch rng.Intn(3) {
			case 0:
				for n := rng.Intn(8); n > 0; n-- {
					e.Step()
				}
			case 1:
				bound := e.Now() + Time(rng.Intn(3))
				e.RunUntil(bound)
				if e.Now() != bound {
					t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", seed, bound, e.Now())
				}
				for _, r := range pending {
					if r.at <= bound {
						t.Fatalf("seed %d: RunUntil(%v) left event %+v queued", seed, bound, r)
					}
				}
			case 2:
				if budget > 0 {
					schedule()
				}
			}
			if len(e.events) != len(pending) {
				t.Fatalf("seed %d: Pending = %d, reference holds %d", seed, len(e.events), len(pending))
			}
		}
		if fired != ids {
			t.Fatalf("seed %d: fired %d of %d events", seed, fired, ids)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{25 * Microsecond, "25µs"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{-3 * Millisecond, "-3ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (1500 * Nanosecond).Micros() != 1.5 {
		t.Error("Micros conversion wrong")
	}
	if (2500 * Microsecond).Millis() != 2.5 {
		t.Error("Millis conversion wrong")
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Error("Seconds conversion wrong")
	}
}

// A daemon event runs in its turn while the model has events of its
// own, but a queue holding only daemon events counts as empty: a
// self-rescheduling tick stops with the model and leaves the clock at
// the model's last event.
func TestDaemonEventsKeepNoRunGoing(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		e.ScheduleDaemon(e.Now()+10, tick)
	}
	e.ScheduleDaemon(10, tick)
	e.Schedule(25, func() {})
	e.Run()
	if e.Now() != 25 {
		t.Errorf("run ended at %v, want the model's last event at 25", e.Now())
	}
	if len(ticks) != 2 || ticks[0] != 10 || ticks[1] != 20 {
		t.Errorf("daemon ticks at %v, want 10 and 20", ticks)
	}
}

// RunUntil stops early, with the clock at its bound, when only daemon
// events are left before it.
func TestRunUntilStopsAtDaemonOnlyQueue(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.ScheduleDaemon(e.Now()+10, tick) }
	e.ScheduleDaemon(10, tick)
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("clock at %v after RunUntil(100), want 100", e.Now())
	}
}
