package obs

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// EventKind classifies a health event.
type EventKind int

// The event taxonomy. Lease, floor, forced-GC, migration, device-down,
// and repair events are emitted by the layer that acts
// (sched, ftl, place, serve); storm, collapse, proximity, drift, and
// burn events are derived by the Monitor from sampled ledger deltas.
const (
	EventLeaseGrant EventKind = iota
	EventLeaseDecline
	EventFloorHit
	EventForcedGC
	EventGCStorm
	EventAdmissionCollapse
	EventFloorProximity
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
	"lease_grant", "lease_decline", "floor_hit", "forced_gc",
	"gc_storm", "admission_collapse", "floor_proximity", "drift",
	"slo_burn", "slo_clear",
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

// EventSink receives health events; Monitor implements it, and the
// acting layers (sched, ftl, place, serve) hold one to report into.
type EventSink interface {
	Emit(ev HealthEvent)
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

	eval  func() (value float64, trip bool, quiet bool, ready bool)
	reset func() // rebase hook: drop baselines and latches (Rebase)

	firing   bool
	quietRun int
	windowLo sim.Time // start of the current excursion, for Explain
}

// Monitor is the SLO health engine: it hangs off a Sampler's OnSample
// hook, evaluates burn-rate / drift / threshold watches against the
// sampled series, collects typed health events from the acting layers
// (it is the fabric's EventSink), and correlates derived alerts with
// the trace flight recorder so an alert can quote the slowest spans
// inside its own window.
type Monitor struct {
	sam    *Sampler
	tracer *Tracer

	events []HealthEvent // ring, oldest at head once full
	head   int
	full   bool
	counts [numEventKinds]int64

	watches []*watch
}

// NewMonitor builds a monitor over the sampler's series and registers
// it on the sampler's tick hook. The tracer may be nil (alerts then
// carry no span explanations).
func NewMonitor(sam *Sampler, tracer *Tracer) *Monitor {
	m := &Monitor{sam: sam, tracer: tracer}
	sam.OnSample(m.onSample)
	return m
}

// Emit records a typed health event; Monitor implements EventSink.
// Nil-safe.
func (m *Monitor) Emit(ev HealthEvent) {
	if m == nil {
		return
	}
	ev.KindName = ev.Kind.String()
	if ev.Kind >= 0 && ev.Kind < numEventKinds {
		m.counts[ev.Kind]++
	}
	if len(m.events) < eventRing && !m.full {
		m.events = append(m.events, ev)
		return
	}
	m.full = true
	m.events[m.head] = ev
	m.head = (m.head + 1) % len(m.events)
}

// Events returns the retained events, oldest first.
func (m *Monitor) Events() []HealthEvent {
	if m == nil {
		return nil
	}
	out := make([]HealthEvent, 0, len(m.events))
	start := 0
	if m.full {
		start = m.head
	}
	for i := 0; i < len(m.events); i++ {
		out = append(out, m.events[(start+i)%len(m.events)])
	}
	return out
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

// windowDelta computes the change in a counter series over the last n
// sampling intervals (0 if the ring holds fewer points).
func (m *Monitor) windowDelta(series string, n int) (float64, bool) {
	pts := m.sam.Last(series, n+1)
	if len(pts) < n+1 {
		return 0, false
	}
	return pts[len(pts)-1].V - pts[0].V, true
}

// WatchSLO adds a multi-window burn-rate watch: errSeries and
// totalSeries are counter series; budget is the tolerated error
// fraction (the SLO's error budget, e.g. 0.01 for 99%). class, when
// non-empty, names the trace class whose slowest spans explain the
// alert. Nil-safe.
func (m *Monitor) WatchSLO(name, errSeries, totalSeries string, budget float64, class string) {
	if m == nil || budget <= 0 {
		return
	}
	w := &watch{kind: EventSLOBurn, name: name, class: class}
	w.eval = func() (float64, bool, bool, bool) {
		longErr, okLE := m.windowDelta(errSeries, longWindow)
		longTot, okLT := m.windowDelta(totalSeries, longWindow)
		shortErr, okSE := m.windowDelta(errSeries, shortWindow)
		shortTot, okST := m.windowDelta(totalSeries, shortWindow)
		if !okLE || !okLT || !okSE || !okST {
			return 0, false, false, false
		}
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
	d := metrics.NewDrift(driftThreshold, driftBaseline, driftConfirm)
	w := &watch{kind: EventDrift, name: name, class: class, reset: d.Reset}
	w.eval = func() (float64, bool, bool, bool) {
		pts := m.sam.Last(series, 1)
		if len(pts) == 0 {
			return 0, false, false, false
		}
		tripped := d.Observe(pts[0].V)
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
	w := &watch{kind: kind, name: name, class: class}
	w.eval = func() (float64, bool, bool, bool) {
		num, okN := m.windowDelta(numSeries, shortWindow)
		den, okD := m.windowDelta(denSeries, shortWindow)
		if !okN || !okD || den <= 0 {
			return 0, false, true, okN && okD
		}
		f := num / den
		return f, f >= frac, f < clearFraction*frac, true
	}
	m.addWatch(w)
}

// WatchCounterRate adds a watch on a counter's short-window rate in
// events per sampled interval (e.g. floor hits per tick for a GC
// storm). Nil-safe.
func (m *Monitor) WatchCounterRate(kind EventKind, name, series string, perTick float64, class string) {
	if m == nil || perTick <= 0 {
		return
	}
	w := &watch{kind: kind, name: name, class: class}
	w.eval = func() (float64, bool, bool, bool) {
		d, ok := m.windowDelta(series, shortWindow)
		if !ok {
			return 0, false, true, false
		}
		r := d / float64(shortWindow)
		return r, r >= perTick, r < clearFraction*perTick, true
	}
	m.addWatch(w)
}

// WatchGaugeBelow adds a watch that fires while a gauge sits at or
// below floor (e.g. GC free-pool headroom nearing the hard floor) and
// clears once it recovers above floor for clearTicks samples.
// Negative samples are ignored (gauge not yet meaningful). Nil-safe.
func (m *Monitor) WatchGaugeBelow(kind EventKind, name, series string, floor float64, class string) {
	if m == nil {
		return
	}
	w := &watch{kind: kind, name: name, class: class}
	w.eval = func() (float64, bool, bool, bool) {
		pts := m.sam.Last(series, 1)
		if len(pts) == 0 || pts[0].V < 0 {
			return 0, false, true, false
		}
		v := pts[0].V
		return v, v <= floor, v > floor, true
	}
	m.addWatch(w)
}

func (m *Monitor) addWatch(w *watch) {
	m.watches = append(m.watches, w)
}

// Rebase starts a measurement epoch (serve.Fabric.ResetStats): the
// event ring and the per-kind counts clear, so set-up events are never
// reported as the epoch's, and every watch's state machine restarts —
// drift baselines are dropped and re-armed from the samples that
// follow, latches release, and in-flight excursions clear, so drift is
// judged against the post-warm-up steady state, never the cold start.
// Nil-safe.
func (m *Monitor) Rebase() {
	if m == nil {
		return
	}
	m.events, m.head, m.full = nil, 0, false
	m.counts = [numEventKinds]int64{}
	for _, w := range m.watches {
		w.firing = false
		w.quietRun = 0
		if w.reset != nil {
			w.reset()
		}
	}
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
