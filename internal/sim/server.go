package sim

// Server models an exclusive resource with FIFO service: a flash channel,
// a LUN, a CPU core, a lock. Work is reserved in arrival order; a
// reservation starts when the resource becomes free and occupies it for
// the requested duration.
type Server struct {
	eng  *Engine
	name string

	freeAt Time // when the last reservation ends
	busy   Time // total occupied time, for utilization

	trace     []Interval
	tracing   bool
	traceFrom Time

	tap Tap
}

// Tap observes every reservation on a server at the moment it is made:
// the label, how long the reservation waits behind earlier work, the
// busy time it charges, and the (virtual) time of the reservation. The
// tap fires synchronously inside Use/UseFrom — exactly where busy is
// credited — so an observer that sums busy per tap closes exactly
// against the server's own Busy() counter. Taps charge no virtual time.
type Tap func(label string, wait, busy, at Time)

// Interval is one occupancy span of a traced server.
type Interval struct {
	Start, End Time
	Label      string
}

// NewServer returns an idle server named name on eng.
func NewServer(eng *Engine, name string) *Server {
	return &Server{eng: eng, name: name}
}

// FreeAt reports when the server next becomes free (which may be in the
// past if it is idle).
func (s *Server) FreeAt() Time { return s.freeAt }

// Busy reports the cumulative occupied time.
func (s *Server) Busy() Time { return s.busy }

// Utilization reports busy time as a fraction of the window from trace
// start (or zero) to now.
func (s *Server) Utilization() float64 {
	window := s.eng.Now() - s.traceFrom
	if window <= 0 {
		return 0
	}
	return float64(s.busy) / float64(window)
}

// StartTrace begins recording occupancy intervals for Gantt rendering
// and resets the utilization window.
func (s *Server) StartTrace() {
	s.tracing = true
	s.trace = s.trace[:0]
	s.traceFrom = s.eng.Now()
	s.busy = 0
}

// Trace returns the recorded occupancy intervals.
func (s *Server) Trace() []Interval { return s.trace }

// SetTap installs the reservation observer (nil removes it). A server
// has at most one tap: setting a second silently replaces the first,
// which a two-path accounting check (obs.Profiler) surfaces as drift
// rather than double counting.
func (s *Server) SetTap(fn Tap) { s.tap = fn }

// Use reserves the server for d nanoseconds starting as soon as it is
// free (FIFO behind earlier reservations). done, if non-nil, runs at the
// end of the reservation and receives the actual start and end times.
// Use returns the reservation's end time.
func (s *Server) Use(d Time, label string, done func(start, end Time)) Time {
	return s.UseFrom(s.eng.Now(), d, label, done)
}

// UseFrom reserves the server for d nanoseconds starting no earlier than
// ready (used to chain a reservation after an upstream stage completes,
// when scheduling eagerly). It returns the end time.
func (s *Server) UseFrom(ready Time, d Time, label string, done func(start, end Time)) Time {
	if ready < s.eng.Now() {
		ready = s.eng.Now()
	}
	return s.reserve(ready, ready, d, label, done)
}

// UseHeld is UseFrom for work its owner held back from the server since
// ready, which may have passed: the reservation starts no earlier than
// now, but the tap's wait counts from ready, so the held time shows as
// wait behind the resource like any other queueing.
func (s *Server) UseHeld(ready Time, d Time, label string, done func(start, end Time)) Time {
	return s.reserve(max(ready, s.eng.Now()), ready, d, label, done)
}

// reserve books d from ready (no earlier than now), the tap's wait
// counting from since.
func (s *Server) reserve(ready, since Time, d Time, label string, done func(start, end Time)) Time {
	if d < 0 {
		panic("sim: negative service time")
	}
	start := s.freeAt
	if start < ready {
		start = ready
	}
	end := start + d
	s.freeAt = end
	s.busy += d
	if s.tracing {
		s.trace = append(s.trace, Interval{Start: start, End: end, Label: label})
	}
	if s.tap != nil {
		s.tap(label, start-since, d, s.eng.Now())
	}
	if done != nil {
		s.eng.push(event{at: end, done: done, start: start})
	}
	return end
}
