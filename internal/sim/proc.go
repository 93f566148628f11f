package sim

import "iter"

// This file implements a cooperative process model on top of the event
// loop, so higher layers (the storage engine, workload clients) can be
// written in ordinary blocking style while still executing in virtual
// time.
//
// Protocol: exactly one entity runs at a time — either the event loop or
// one process. Each process body runs on a runtime coroutine (iter.Pull).
// Waking process P is a call, handoff(P): the waker switches directly to
// P's coroutine — no scheduler, no lock, no allocation — and the call
// returns when P suspends (yields) or its body returns. Because a wake-up
// is a call, nested wake-ups (a process firing another process's
// condition) nest on the wakers' stacks and unwind in LIFO order.
//
// Failure follows the same path as control. A panic in a process body
// propagates out of handoff into whoever woke the process, through any
// nested wakers, and out of Engine.Step on the goroutine that called it,
// carrying the process's panic value. runtime.Goexit in a body (t.Fatalf
// in a test) likewise unwinds every waker and the caller of Step. Either
// way the process and the wakers it unwound through are dead but still
// counted live: the engine is not to be run further.

// Proc is a simulated process (a coroutine scheduled in virtual time).
type Proc struct {
	eng   *Engine
	next  func() (struct{}, bool) // switches to the body until it yields
	yield func(struct{}) bool     // switches back to whoever called next
	wake  func()                  // handoff to this process, bound once for Sleep and Unpark

	// parked is the process's index in Engine.parked plus one while it
	// waits in Park (0: not parked); released tells that Park the engine
	// let it go instead of Unpark waking it.
	parked   int
	released bool
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Go starts fn as a simulated process at the current virtual time.
// fn runs on its own coroutine under the strict handoff protocol, so
// model state never needs locking.
func (e *Engine) Go(fn func(p *Proc)) {
	e.procs++
	p := &Proc{eng: e}
	p.wake = func() { e.handoff(p) }
	e.Schedule(e.now, func() {
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			fn(p)
			e.procs--
		})
		e.handoff(p)
	})
}

// handoff transfers control to p and returns when p suspends or exits.
// It must be called by the currently running entity.
func (e *Engine) handoff(p *Proc) { p.next() }

// suspend parks the process until something resumes it via handoff.
func (p *Proc) suspend() { p.yield(struct{}{}) }

// Sleep blocks the process for d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	p.eng.After(d, p.wake)
	p.suspend()
}

// Park suspends p until Unpark without counting p as a live process, so
// Run drains — and reports no deadlock — while p waits. It is how a
// daemon waits for work that may never come (a WAL's log writer between
// syncs). Park reports false when nothing is left to wake p: Step found
// the event queue empty with p parked, so no event can ever reach an
// Unpark. p must then return; its owner starts a new process if work
// arrives later.
func (p *Proc) Park() bool {
	e := p.eng
	e.parked = append(e.parked, p)
	p.parked = len(e.parked)
	e.procs--
	p.suspend()
	e.procs++
	if p.released {
		p.released = false
		return false
	}
	return true
}

// Unpark resumes a parked p after the events already queued at the
// current instant; it is a no-op when p is not parked.
func (p *Proc) Unpark() {
	if p.parked == 0 {
		return
	}
	p.eng.unpark(p)
	p.eng.Schedule(p.eng.now, p.wake)
}

// unpark takes p off the parked list.
func (e *Engine) unpark(p *Proc) {
	i, last := p.parked-1, len(e.parked)-1
	e.parked[i] = e.parked[last]
	e.parked[i].parked = i + 1
	e.parked[last] = nil
	e.parked = e.parked[:last]
	p.parked = 0
}

// release ends every parked process: with no event queued, nothing can
// unpark them any more.
func (e *Engine) release() {
	for n := len(e.parked); n > 0; n = len(e.parked) {
		p := e.parked[n-1]
		e.unpark(p)
		p.released = true
		e.handoff(p)
	}
}

// Cond is a one-shot condition processes can await and any entity
// (an event handler or another process) can fire. Firing before the
// await completes immediately; firing twice is a no-op. Multiple
// waiters wake in await order. A pooled owner may re-arm a fired Cond
// with Reset; the first waiter is held inline, so a re-armed Cond that
// one process awaits allocates nothing.
type Cond struct {
	eng   *Engine
	fired bool
	first *Proc   // the first waiter
	rest  []*Proc // later waiters, in await order
}

// NewCond returns an unfired condition bound to eng.
func NewCond(eng *Engine) *Cond { return &Cond{eng: eng} }

// Reset re-arms a fired condition nothing waits on.
func (c *Cond) Reset() { c.fired = false }

// Fire marks the condition done and wakes every waiting process, each
// running until it suspends again.
func (c *Cond) Fire() {
	if c.fired {
		return
	}
	c.fired = true
	first, rest := c.first, c.rest
	c.first, c.rest = nil, nil
	if first != nil {
		c.eng.handoff(first)
	}
	for _, w := range rest {
		c.eng.handoff(w)
	}
}

// Await blocks process p until the condition fires.
func (c *Cond) Await(p *Proc) {
	if c.fired {
		return
	}
	if c.first == nil {
		c.first = p
	} else {
		c.rest = append(c.rest, p)
	}
	p.suspend()
}

// Await is the blocking form of a callback-style operation: start hands
// done to the operation, which calls it exactly once, and p blocks until
// it has. An error from start itself means done will never be called; it
// is returned at once.
func (p *Proc) Await(start func(done func(error)) error) error {
	c := NewCond(p.eng)
	var err error
	if serr := start(func(e error) { err = e; c.Fire() }); serr != nil {
		return serr
	}
	c.Await(p)
	return err
}

// WaitGroup counts outstanding work items in virtual time. A process can
// Wait for the count to reach zero.
type WaitGroup struct {
	eng   *Engine
	count int
	cond  *Cond
}

// NewWaitGroup returns a wait group bound to eng.
func NewWaitGroup(eng *Engine) *WaitGroup { return &WaitGroup{eng: eng} }

// Add increments the count by n (n may be negative; Done is Add(-1)).
func (w *WaitGroup) Add(n int) {
	w.count += n
	if w.count < 0 {
		panic("sim: negative WaitGroup count")
	}
	if w.count == 0 && w.cond != nil {
		c := w.cond
		w.cond = nil
		c.Fire()
	}
}

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	if w.cond == nil {
		w.cond = NewCond(w.eng)
	}
	w.cond.Await(p)
}
