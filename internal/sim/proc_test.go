package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var woke Time = -1
	e.Go(func(p *Proc) {
		p.Sleep(100)
		woke = p.Now()
	})
	e.Run()
	if woke != 100 {
		t.Fatalf("proc woke at %v, want 100", woke)
	}
}

func TestProcSleepZeroIsNoop(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Go(func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-5)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("proc did not complete")
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go(func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20)
		order = append(order, "a30")
	})
	e.Go(func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15)
		order = append(order, "b15")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCondFireBeforeAwait(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	c.Fire()
	done := false
	e.Go(func(p *Proc) {
		c.Await(p) // must not block
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("Await on fired cond blocked")
	}
}

func TestCondFireWakesWaiter(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var woke Time = -1
	e.Go(func(p *Proc) {
		c.Await(p)
		woke = p.Now()
	})
	e.Schedule(42, c.Fire)
	e.Run()
	if woke != 42 {
		t.Fatalf("waiter woke at %v, want 42", woke)
	}
}

func TestCondDoubleFireIsNoop(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	c.Fire()
	c.Fire()
	if !c.fired {
		t.Fatal("cond not fired")
	}
}

func TestProcFiresAnotherProcsCond(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var events []string
	e.Go(func(p *Proc) {
		events = append(events, "waiter:await")
		c.Await(p)
		events = append(events, "waiter:woke")
	})
	e.Go(func(p *Proc) {
		p.Sleep(5)
		events = append(events, "firer:fire")
		c.Fire()
		events = append(events, "firer:after")
	})
	e.Run()
	want := []string{"waiter:await", "firer:fire", "waiter:woke", "firer:after"}
	for i := range want {
		if i >= len(events) || events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	var finished Time = -1
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		e.Go(func(p *Proc) {
			p.Sleep(Time(i * 10))
			wg.Done()
		})
	}
	e.Go(func(p *Proc) {
		wg.Wait(p)
		finished = p.Now()
	})
	e.Run()
	if finished != 30 {
		t.Fatalf("waiter finished at %v, want 30", finished)
	}
}

func TestWaitGroupZeroCountDoesNotBlock(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	done := false
	e.Go(func(p *Proc) {
		wg.Wait(p)
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("Wait on zero wait group blocked")
	}
}

func TestDeadlockPanics(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Go(func(p *Proc) {
		c.Await(p) // never fired
	})
	defer func() {
		if recover() == nil {
			t.Error("Run with a permanently blocked proc did not panic")
		}
	}()
	e.Run()
}

// A parked process is not live: Run drains past it, each Unpark wakes it
// once (a second Unpark before it runs is a no-op), and when the queue
// runs dry the engine releases it — Park reports false — instead of
// calling it a deadlock.
func TestParkedProcIsReleasedWhenNothingCanWakeIt(t *testing.T) {
	e := NewEngine()
	var parked *Proc
	var woke []Time
	released := 0
	e.Go(func(p *Proc) {
		parked = p
		for p.Park() {
			woke = append(woke, p.Now())
		}
		released++
	})
	e.Schedule(5, func() { parked.Unpark() })
	e.Schedule(7, func() {
		parked.Unpark()
		parked.Unpark()
	})
	e.Run()
	if len(woke) != 2 || woke[0] != 5 || woke[1] != 7 {
		t.Fatalf("woke at %v, want [5 7]", woke)
	}
	if released != 1 || e.procs != 0 || len(e.parked) != 0 {
		t.Fatalf("released %d times, %d live, %d parked; want 1, 0, 0", released, e.procs, len(e.parked))
	}
	parked.Unpark() // exited: a no-op, schedules nothing
	if len(e.events) != 0 {
		t.Fatalf("Unpark of an exited process queued %d events", len(e.events))
	}
}

func TestYieldRunsQueuedEventsFirst(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go(func(p *Proc) {
		e.After(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc")
	})
	e.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Fatalf("order = %v, want [event proc]", order)
	}
}

func TestManyProcsHeavyInterleaving(t *testing.T) {
	e := NewEngine()
	const n = 50
	total := 0
	for i := 0; i < n; i++ {
		i := i
		e.Go(func(p *Proc) {
			for j := 0; j < 20; j++ {
				p.Sleep(Time(1 + (i+j)%7))
			}
			total++
		})
	}
	e.Run()
	if total != n {
		t.Fatalf("completed %d procs, want %d", total, n)
	}
}

// One Cond with three waiters, each of which fires a further Cond with
// its own waiter, fired by a fourth process: wake-ups nest as calls, so
// each waiter's own wake-up runs to its suspension point inside the
// outer Fire before the next waiter resumes. The order below is the
// channel-handoff implementation's, recorded at the commit before the
// coroutine switch.
func TestNestedWakeupOrder(t *testing.T) {
	e := NewEngine()
	outer := NewCond(e)
	var log []string
	for i := 0; i < 3; i++ {
		inner := NewCond(e)
		e.Go(func(p *Proc) {
			inner.Await(p)
			log = append(log, fmt.Sprintf("inner%d:woke", i))
			p.Sleep(1)
			log = append(log, fmt.Sprintf("inner%d:slept", i))
		})
		e.Go(func(p *Proc) {
			outer.Await(p)
			log = append(log, fmt.Sprintf("w%d:woke", i))
			inner.Fire()
			log = append(log, fmt.Sprintf("w%d:fired", i))
			p.Yield()
			log = append(log, fmt.Sprintf("w%d:yielded", i))
		})
	}
	e.Go(func(p *Proc) {
		p.Sleep(5)
		log = append(log, "firer:fire")
		outer.Fire()
		log = append(log, "firer:after")
	})
	e.Run()
	want := []string{
		"firer:fire",
		"w0:woke", "inner0:woke", "w0:fired",
		"w1:woke", "inner1:woke", "w1:fired",
		"w2:woke", "inner2:woke", "w2:fired",
		"firer:after",
		"w0:yielded", "w1:yielded", "w2:yielded",
		"inner0:slept", "inner1:slept", "inner2:slept",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("order =\n %v\nwant\n %v", log, want)
	}
	if e.Now() != 6 {
		t.Fatalf("finished at %v, want 6", e.Now())
	}
}

// A panic in a process body reaches whoever drives the engine, on that
// goroutine and with the body's own panic value — also when the process
// was woken by another process rather than by the event loop.
func TestProcPanicSurfacesFromStep(t *testing.T) {
	stepUntilPanic := func(e *Engine) (got any) {
		defer func() { got = recover() }()
		for e.Step() {
		}
		return nil
	}

	e := NewEngine()
	e.Go(func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	})
	if got := stepUntilPanic(e); got != "boom" {
		t.Fatalf("Step recovered %v, want the proc's panic value \"boom\"", got)
	}
	if e.Now() != 10 {
		t.Fatalf("panic surfaced at %v, want 10", e.Now())
	}

	e = NewEngine()
	c := NewCond(e)
	e.Go(func(p *Proc) {
		c.Await(p)
		panic("nested boom")
	})
	firerResumed := false
	e.Go(func(p *Proc) {
		p.Sleep(5)
		c.Fire()
		firerResumed = true
	})
	if got := stepUntilPanic(e); got != "nested boom" {
		t.Fatalf("Step recovered %v, want \"nested boom\" through the waking proc", got)
	}
	if firerResumed {
		t.Fatal("the waking proc ran on after the proc it woke panicked")
	}
}

// runtime.Goexit in a process body (t.Fatalf in a test) unwinds the
// goroutine that drives the engine: its deferred calls run and it ends,
// rather than the engine blocking forever on a process that is gone.
func TestGoexitInsideProcUnwindsCaller(t *testing.T) {
	e := NewEngine()
	e.Go(func(p *Proc) {
		p.Sleep(10)
		runtime.Goexit()
	})
	unwound := make(chan bool, 1) // one send, from the driver's deferred call
	go func() {
		returned := false
		defer func() { unwound <- !returned }()
		e.Run()
		returned = true
	}()
	select {
	case ok := <-unwound:
		if !ok {
			t.Fatal("Run returned normally after a proc called Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine wedged: the driving goroutine neither returned nor unwound")
	}
}
