package obs

import (
	"encoding/json"
	"net/http"

	"repro/internal/sim"
)

// Exposition serves live telemetry over HTTP: /metrics renders the
// sampler's latest values in the Prometheus text format, /snapshot the
// registry's merged JSON document, /series the full ring dump, /events
// the monitor's health timeline, and /profile the resource profiler's
// folded flame stacks (?format=json for the structured snapshot).
//
// Handlers never read telemetry state. Each request is handed over one
// channel to the simulation thread, which renders it at the followed
// run's next sampler tick (Follow) — or, once no simulation is
// left to tick, in ServeUntil. So the sources stay single-threaded.
type Exposition struct {
	// reqs is buffered so serve can render exactly the requests queued
	// when the tick fired (len), never waiting on a handler: a stream of
	// clients cannot hold a tick open, and 16 bounds the work one tick
	// takes on. Handlers past that wait for a slot.
	reqs chan request

	// The followed run's sources; touched on the simulation thread only.
	reg  *Registry
	sam  *Sampler
	mon  *Monitor
	prof *Profiler
}

// request is one HTTP request handed to the simulation thread; the
// rendered reply comes back on its own buffered channel, so rendering
// never blocks on a client that has gone away.
type request struct {
	path  string
	json  bool
	reply chan reply
}

// reply is a rendered response. A status other than 200 is an error
// whose text is the body.
type reply struct {
	status int
	ctype  string
	body   []byte
}

// unavailable answers an endpoint whose source the followed run lacks.
var unavailable = reply{http.StatusServiceUnavailable, "", []byte("no live run attached")}

// NewExposition returns an exposition following no run; endpoints
// answer 503 until Follow installs sources.
func NewExposition() *Exposition { return &Exposition{reqs: make(chan request, 16)} }

// Follow points the exposition at a run's sources (any may be nil) and
// hooks the run's sampler tick to serve the waiting requests. Call it
// on the simulation thread. Nil-safe.
func (e *Exposition) Follow(reg *Registry, sam *Sampler, mon *Monitor, prof *Profiler) {
	if e == nil {
		return
	}
	e.reg, e.sam, e.mon, e.prof = reg, sam, mon, prof
	sam.OnSample(func(sim.Time) { e.serve() })
}

// serve renders the requests waiting when it is called and returns
// without blocking: the followed run's sampler tick calls it.
func (e *Exposition) serve() {
	for n := len(e.reqs); n > 0; n-- {
		req := <-e.reqs
		req.reply <- e.render(req)
	}
}

// ServeUntil renders requests as they arrive until done closes (a nil
// done serves forever): the blocking form for when no simulation is
// left to tick, such as deathbench after its suite.
func (e *Exposition) ServeUntil(done <-chan struct{}) {
	for {
		select {
		case req := <-e.reqs:
			req.reply <- e.render(req)
		case <-done:
			return
		}
	}
}

// render builds one endpoint's response from the followed sources.
func (e *Exposition) render(req request) reply {
	switch req.path {
	case "/metrics":
		if e.sam != nil {
			return reply{http.StatusOK, "text/plain; version=0.0.4", []byte(e.sam.PromText())}
		}
	case "/snapshot":
		if e.reg != nil {
			return jsonReply(e.reg.Export())
		}
	case "/series":
		if e.sam != nil {
			return jsonReply(e.sam.Dump())
		}
	case "/events":
		if e.mon != nil {
			return jsonReply(map[string]any{
				"counts": e.mon.Counts(),
				"firing": e.mon.Firing(),
				"events": e.mon.Events(),
			})
		}
	case "/profile":
		if e.prof != nil {
			snap := e.prof.Snapshot()
			if req.json {
				return jsonReply(snap)
			}
			// Default is the folded flame text: pipe straight into
			// flamegraph.pl / speedscope.
			return reply{http.StatusOK, "text/plain; charset=utf-8", []byte(snap.Folded)}
		}
	}
	return unavailable
}

func jsonReply(v any) reply {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return reply{http.StatusInternalServerError, "", []byte(err.Error())}
	}
	return reply{http.StatusOK, "application/json", append(body, '\n')}
}

// Handler returns the HTTP mux serving the five endpoints.
func (e *Exposition) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, path := range []string{"/metrics", "/snapshot", "/series", "/events", "/profile"} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			req := request{path: path, json: r.URL.Query().Get("format") == "json", reply: make(chan reply, 1)}
			select {
			case e.reqs <- req:
			case <-r.Context().Done():
				return
			}
			var rep reply
			select {
			case rep = <-req.reply:
			case <-r.Context().Done():
				return
			}
			if rep.status != http.StatusOK {
				http.Error(w, string(rep.body), rep.status)
				return
			}
			w.Header().Set("Content-Type", rep.ctype)
			_, _ = w.Write(rep.body)
		})
	}
	return mux
}

// live is the process-wide exposition, installed by ServeLive before
// any run starts (deathbench -serve) and nil otherwise: without it,
// fabrics touch no package state, so runs on parallel goroutines (the
// test suite's) share nothing.
var live *Exposition

// ServeLive installs and returns the process-wide exposition. Call it
// once, before the first fabric is built.
func ServeLive() *Exposition {
	live = NewExposition()
	return live
}

// FollowLive points the process-wide exposition, when one is installed,
// at a starting run's sources (serve.Fabric's telemetry start-up calls
// it), so it always shows the most recently started run.
func FollowLive(reg *Registry, sam *Sampler, mon *Monitor, prof *Profiler) {
	live.Follow(reg, sam, mon, prof)
}
