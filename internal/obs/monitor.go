package obs

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// EventKind classifies a health event.
type EventKind int

// The event taxonomy. Lease-grant, migration, device-down and repair
// events are emitted by the layer that acts (sched, place, serve);
// collapse, drift and burn events are derived by the Monitor from
// sampled ledger deltas. The device reports its GC floor through the
// GCCoord ledger and the peer interface, not here.
const (
	EventLeaseGrant EventKind = iota
	EventAdmissionCollapse
	EventDrift
	EventSLOBurn
	EventSLOClear
	EventMigrationStart
	EventMigrationFinish
	EventMigrationAbort
	EventDeviceDown
	EventRepairStart
	EventRepairDone
	EventRepairAbort
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"lease_grant", "admission_collapse", "drift", "slo_burn", "slo_clear",
	"migration_start", "migration_finish", "migration_abort",
	"device_down", "repair_start", "repair_done", "repair_abort",
}

// String names the kind for rendering and JSON.
func (k EventKind) String() string {
	if k < 0 || k >= numEventKinds {
		return "unknown"
	}
	return eventKindNames[k]
}

// HealthEvent is one typed occurrence on the health timeline: what
// happened, when in virtual time, a human-readable detail line, the
// measured value that triggered it, and — for derived alerts — an
// explanation built from the flight recorder's slowest spans in the
// alert window.
type HealthEvent struct {
	Kind     EventKind `json:"-"`
	KindName string    `json:"kind"`
	At       sim.Time  `json:"at_ns"`
	Name     string    `json:"name"`
	Detail   string    `json:"detail,omitempty"`
	Value    float64   `json:"value"`
	Explain  string    `json:"explain,omitempty"`
}

// The health engine's fixed parameters.
const (
	// eventRing is the event ring capacity.
	eventRing = 512

	// Multi-window burn-rate alerting (Google-SRE style): an SLO alert
	// fires when the error budget burns at burnThreshold× the
	// sustainable rate over both the long and the short window (in
	// sampling ticks) — the long window proves it is not a blip, the
	// short window proves it is still happening. It clears only after
	// the short-window burn stays below clearFraction×threshold for
	// clearTicks consecutive samples, so a rate hovering at the
	// threshold cannot flap.
	longWindow    = 8
	shortWindow   = 2
	burnThreshold = 2.0
	clearFraction = 0.5
	clearTicks    = 3

	// Drift detection runs metrics.Drift on a sampled series: the
	// baseline is the mean of the first driftBaseline positive samples,
	// and the watch trips once the value holds at driftThreshold×
	// baseline for driftConfirm consecutive samples, then latches
	// (aging does not heal).
	driftBaseline  = 4
	driftConfirm   = 2
	driftThreshold = 1.5

	// explainSpans is how many slowest spans an alert quotes.
	explainSpans = 3
)

// watch is one derived-alert state machine evaluated every sampling
// tick. eval returns the measured value, whether the trip condition
// holds this tick, and whether the value is quiet enough to count
// toward clearing.
type watch struct {
	kind  EventKind
	name  string
	class string // trace class for Explain correlation, if any

	eval func() (value float64, trip bool, quiet bool, ready bool)

	firing   bool
	quietRun int
	windowLo sim.Time // start of the current excursion, for Explain
}

// Monitor is the SLO health engine: it hangs off a Sampler's OnSample
// hook, evaluates burn-rate / drift / threshold watches against the
// sampled series, collects typed health events from the acting layers
// (sched, place, serve), and correlates derived alerts with
// the trace flight recorder so an alert can quote the slowest spans
// inside its own window.
type Monitor struct {
	sam    *Sampler
	tracer *Tracer

	events ring[HealthEvent]
	counts [numEventKinds]int64

	watches []*watch
}

// NewMonitor builds a monitor over the sampler's series and registers
// it on the sampler's tick hook. The tracer may be nil (alerts then
// carry no span explanations).
func NewMonitor(sam *Sampler, tracer *Tracer) *Monitor {
	m := &Monitor{sam: sam, tracer: tracer, events: newRing[HealthEvent](eventRing)}
	sam.OnSample(m.onSample)
	return m
}

// Emit records a typed health event. Nil-safe.
func (m *Monitor) Emit(ev HealthEvent) {
	if m == nil {
		return
	}
	ev.KindName = ev.Kind.String()
	if ev.Kind >= 0 && ev.Kind < numEventKinds {
		m.counts[ev.Kind]++
	}
	m.events.push(ev)
}

// Events returns the retained events, oldest first.
func (m *Monitor) Events() []HealthEvent {
	if m == nil {
		return nil
	}
	return m.events.last(eventRing)
}

// Count reports how many events of a kind have been recorded (including
// any that have fallen off the ring).
func (m *Monitor) Count(kind EventKind) int64 {
	if m == nil || kind < 0 || kind >= numEventKinds {
		return 0
	}
	return m.counts[kind]
}

// Counts reports per-kind event totals keyed by kind name.
func (m *Monitor) Counts() map[string]int64 {
	if m == nil {
		return nil
	}
	out := make(map[string]int64, numEventKinds)
	for k := EventKind(0); k < numEventKinds; k++ {
		if m.counts[k] > 0 {
			out[k.String()] = m.counts[k]
		}
	}
	return out
}

// Firing lists the names of watches currently in the firing state.
func (m *Monitor) Firing() []string {
	if m == nil {
		return nil
	}
	var out []string
	for _, w := range m.watches {
		if w.firing {
			out = append(out, w.kind.String()+":"+w.name)
		}
	}
	return out
}

// Snapshot exports the monitor state for the registry: per-kind event
// counts, currently-firing alerts, and the most recent events.
func (m *Monitor) Snapshot() map[string]any {
	if m == nil {
		return nil
	}
	events := m.Events()
	const tail = 32
	if len(events) > tail {
		events = events[len(events)-tail:]
	}
	return map[string]any{
		"counts": m.Counts(),
		"firing": m.Firing(),
		"recent": events,
	}
}

// WatchSLO adds a multi-window burn-rate watch: errSeries and
// totalSeries are counter series; budget is the tolerated error
// fraction (the SLO's error budget, e.g. 0.01 for 99%). The watch is
// ready once the short window is full; until the long window is, the
// long burn is taken over every interval sampled so far. class, when
// non-empty, names the trace class whose slowest spans explain the
// alert. Each Watch* panics on a series name nobody samples. Nil-safe.
func (m *Monitor) WatchSLO(name, errSeries, totalSeries string, budget float64, class string) {
	if m == nil || budget <= 0 {
		return
	}
	errS, totS := m.sam.find(errSeries), m.sam.find(totalSeries)
	w := &watch{kind: EventSLOBurn, name: name, class: class}
	w.eval = func() (float64, bool, bool, bool) {
		shortErr, okE := errS.delta(shortWindow)
		shortTot, okT := totS.delta(shortWindow)
		if !okE || !okT {
			return 0, false, false, false
		}
		// Until the long window fills, it is every interval sampled so
		// far: a burn from the first tick is judged once the short
		// window is full, not when the long one is.
		longErr, longTot := errS.deltaUpTo(longWindow), totS.deltaUpTo(longWindow)
		burn := func(errD, totD float64) float64 {
			if totD <= 0 {
				return 0
			}
			return (errD / totD) / budget
		}
		longBurn, shortBurn := burn(longErr, longTot), burn(shortErr, shortTot)
		trip := longBurn >= burnThreshold && shortBurn >= burnThreshold
		quiet := shortBurn < clearFraction*burnThreshold
		return shortBurn, trip, quiet, true
	}
	m.addWatch(w)
}

// WatchDrift adds a latched drift watch on a gauge series: the
// baseline is the mean of the first driftBaseline positive samples;
// the alarm trips once the sampled value holds at driftThreshold×
// baseline for driftConfirm consecutive ticks, and never clears — the
// tripped metrics.Drift stays tripped, so the watch is never quiet.
// Nil-safe.
func (m *Monitor) WatchDrift(name, series string, class string) {
	if m == nil {
		return
	}
	sr := m.sam.find(series)
	d := metrics.NewDrift(driftThreshold, driftBaseline, driftConfirm)
	w := &watch{kind: EventDrift, name: name, class: class}
	w.eval = func() (float64, bool, bool, bool) {
		pt, ok := sr.back(0)
		if !ok {
			return 0, false, false, false
		}
		tripped := d.Observe(pt.V)
		return d.Ratio(), tripped, false, true
	}
	m.addWatch(w)
}

// WatchRateFraction adds a watch on the windowed ratio of two counter
// series (e.g. rejected/submitted for admission collapse): it fires
// when the short-window fraction reaches frac and clears with the
// standard hysteresis. Nil-safe.
func (m *Monitor) WatchRateFraction(kind EventKind, name, numSeries, denSeries string, frac float64, class string) {
	if m == nil || frac <= 0 {
		return
	}
	numS, denS := m.sam.find(numSeries), m.sam.find(denSeries)
	w := &watch{kind: kind, name: name, class: class}
	w.eval = func() (float64, bool, bool, bool) {
		num, okN := numS.delta(shortWindow)
		den, okD := denS.delta(shortWindow)
		if !okN || !okD || den <= 0 {
			return 0, false, true, okN && okD
		}
		f := num / den
		return f, f >= frac, f < clearFraction*frac, true
	}
	m.addWatch(w)
}

func (m *Monitor) addWatch(w *watch) {
	m.watches = append(m.watches, w)
}

// explainWindow quotes the slowest flight-recorder spans of a class
// that started inside [since, now] — the concrete requests behind an
// alert.
func (m *Monitor) explainWindow(class string, since sim.Time) string {
	if m.tracer == nil || class == "" {
		return ""
	}
	recs := m.tracer.Slowest(class)
	inWindow := recs[:0]
	for _, r := range recs {
		if r.Start >= since {
			inWindow = append(inWindow, r)
		}
	}
	if len(inWindow) == 0 {
		return ""
	}
	sort.Slice(inWindow, func(i, j int) bool { return inWindow[i].Total > inWindow[j].Total })
	if len(inWindow) > explainSpans {
		inWindow = inWindow[:explainSpans]
	}
	out := ""
	for i, r := range inWindow {
		if i > 0 {
			out += "; "
		}
		out += r.Explain()
	}
	return out
}

// onSample advances every watch's state machine at each sampler tick.
func (m *Monitor) onSample(at sim.Time) {
	for _, w := range m.watches {
		value, trip, quiet, ready := w.eval()
		if !ready {
			continue
		}
		switch {
		case !w.firing && trip:
			w.firing = true
			w.quietRun = 0
			w.windowLo = at - sim.Time(longWindow)*m.sam.Interval()
			if w.windowLo < 0 {
				w.windowLo = 0
			}
			m.Emit(HealthEvent{
				Kind:    w.kind,
				At:      at,
				Name:    w.name,
				Value:   value,
				Detail:  fmt.Sprintf("%s tripped at %.3g", w.name, value),
				Explain: m.explainWindow(w.class, w.windowLo),
			})
		case w.firing && quiet:
			w.quietRun++
			if w.quietRun >= clearTicks {
				w.firing = false
				if w.kind == EventSLOBurn {
					m.Emit(HealthEvent{
						Kind:   EventSLOClear,
						At:     at,
						Name:   w.name,
						Value:  value,
						Detail: fmt.Sprintf("%s cleared at %.3g", w.name, value),
					})
				}
			}
		case w.firing: // not quiet: the excursion continues
			w.quietRun = 0
		}
	}
}
