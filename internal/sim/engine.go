package sim

import "fmt"

// event is a scheduled callback. Events at equal times fire in the order
// they were scheduled (seq breaks ties), which keeps runs deterministic.
// An event carries either fn, or a reservation's done with its start (the
// end is at), so Server.Use needs no wrapper closure per reservation.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	done  func(start, end Time)
	start Time
}

// before is the total order events pop in. seq is unique, so no two
// events compare equal and the pop order does not depend on how the heap
// is laid out.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulation loop. The zero value is not
// usable; construct with NewEngine.
//
// The engine is single-threaded by design: exactly one entity (the event
// loop or one Proc) runs at any instant, so model code needs no locking.
type Engine struct {
	now    Time
	events []event // binary min-heap of values on (at, seq)
	seq    uint64

	// procs counts live processes so Run can detect deadlock (processes
	// blocked forever with no pending events). Parked processes (Park)
	// are not live: they wait in parked, which Step releases once no
	// event is left to wake them.
	procs  int
	parked []*Proc
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run at virtual time at. Scheduling in the
// past panics: it would silently corrupt causality.
func (e *Engine) Schedule(at Time, fn func()) {
	e.push(event{at: at, fn: fn})
}

// After arranges for fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now+d, fn)
}

// push stamps ev with the next sequence number and sifts it up.
func (e *Engine) push(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", ev.at, e.now))
	}
	e.seq++
	ev.seq = e.seq
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the earliest event; the queue must not be empty.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the callbacks the vacated slot would keep alive
	h = h[:n]
	e.events = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return top
}

// Step runs the single earliest event, advancing the clock to its time.
// It reports false if no events remain, after releasing every parked
// process (Park returns false to each). A panic in the event — or in a
// process the event wakes — surfaces here, on the caller's goroutine.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		e.release()
		return false
	}
	ev := e.pop()
	e.now = ev.at
	if ev.done != nil {
		ev.done(ev.start, ev.at)
	} else {
		ev.fn()
	}
	return true
}

// Run executes events until none remain. If live processes remain
// blocked when the event queue drains, Run panics: the model has
// deadlocked (a Cond was never fired).
func (e *Engine) Run() {
	for e.Step() {
	}
	if e.procs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events", e.procs))
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t. Events after t remain queued.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
