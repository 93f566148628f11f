package obs

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// SeriesKind tells a reader how to interpret a series' points.
type SeriesKind string

// Series kinds: gauges sample an instantaneous value, counters sample a
// cumulative total (rates come from consecutive-point deltas), and hist
// series are derived per-interval statistics of a cumulative histogram.
const (
	KindGauge   SeriesKind = "gauge"
	KindCounter SeriesKind = "counter"
	KindHist    SeriesKind = "hist"
)

// SeriesPoint is one sample: virtual time and value.
type SeriesPoint struct {
	T sim.Time `json:"t"`
	V float64  `json:"v"`
}

// seriesRing is a fixed-capacity ring of points. Old points fall off
// the front once capacity wraps; the previous raw value survives the
// wrap so counter deltas stay exact.
type seriesRing struct {
	name string
	kind SeriesKind
	pts  []SeriesPoint
	head int // next write position
	full bool
}

func (r *seriesRing) push(p SeriesPoint) {
	if !r.full && len(r.pts) < cap(r.pts) {
		r.pts = append(r.pts, p)
		return
	}
	r.full = true
	r.pts[r.head] = p
	r.head = (r.head + 1) % len(r.pts)
}

// last returns up to n most-recent points, oldest first.
func (r *seriesRing) last(n int) []SeriesPoint {
	total := len(r.pts)
	if n > total {
		n = total
	}
	out := make([]SeriesPoint, 0, n)
	start := 0
	if r.full {
		start = r.head
	}
	for i := total - n; i < total; i++ {
		out = append(out, r.pts[(start+i)%total])
	}
	return out
}

// SeriesData is one exported series: its points in time order plus,
// for counters, the per-interval rates (units/second of virtual time)
// computed from consecutive deltas.
type SeriesData struct {
	Name   string        `json:"name"`
	Kind   SeriesKind    `json:"kind"`
	Points []SeriesPoint `json:"points"`
	Rates  []SeriesPoint `json:"rates,omitempty"`
}

// SeriesDump is the full sampler state as a JSON artifact: every ring,
// plus the sampling interval and tick count that scale the rates.
type SeriesDump struct {
	IntervalUs float64      `json:"interval_us"`
	Ticks      int64        `json:"ticks"`
	Series     []SeriesData `json:"series"`
}

// ringCapacity is the number of points each series ring retains.
const ringCapacity = 256

// Sampler turns the registry's end-of-run snapshots into continuous
// telemetry: driven by the sim clock, it periodically reads every
// attached probe and appends to fixed-capacity per-series rings.
// Sampling charges zero virtual time (probes are pure reads evaluated
// inside one event callback) and is deterministic — the tick schedule
// depends only on the interval, never on wall time.
//
// Probes come in three shapes: gauges (instantaneous values), counters
// (cumulative totals; Rates derives units/sec from consecutive
// deltas), and histograms (each tick diffs the cumulative histogram
// against the previous tick's clone and pushes interval count, mean,
// p50, p99, min, and stddev as sub-series).
type Sampler struct {
	interval sim.Time

	gauges   []probe
	counters []probe
	hists    []histProbe

	rings map[string]*seriesRing
	order []string

	observers []func(at sim.Time)

	ticks   int64
	stopped bool
	started bool
}

type probe struct {
	name string
	fn   func() float64
}

type histProbe struct {
	name string
	fn   func() *metrics.Histogram
	prev *metrics.Histogram
}

// histSubSeries are the derived per-interval statistics every histogram
// probe expands into, in ring-attachment order.
var histSubSeries = []string{"count", "mean_us", "p50_us", "p99_us", "min_us", "stddev_us"}

// NewSampler returns a sampler with the given period (zero = 1ms).
func NewSampler(interval sim.Time) *Sampler {
	if interval <= 0 {
		interval = 1 * sim.Millisecond
	}
	return &Sampler{interval: interval, rings: make(map[string]*seriesRing)}
}

// Interval reports the sampling period.
func (s *Sampler) Interval() sim.Time {
	if s == nil {
		return 0
	}
	return s.interval
}

func (s *Sampler) ring(name string, kind SeriesKind) *seriesRing {
	r, ok := s.rings[name]
	if !ok {
		r = &seriesRing{name: name, kind: kind, pts: make([]SeriesPoint, 0, ringCapacity)}
		s.rings[name] = r
		s.order = append(s.order, name)
	}
	return r
}

// AddGauge registers an instantaneous-value probe. Nil-safe.
func (s *Sampler) AddGauge(name string, fn func() float64) {
	if s == nil || fn == nil {
		return
	}
	s.gauges = append(s.gauges, probe{name, fn})
	s.ring(name, KindGauge)
}

// AddCounter registers a cumulative-total probe; rates are derived at
// export time from consecutive point deltas. Nil-safe.
func (s *Sampler) AddCounter(name string, fn func() float64) {
	if s == nil || fn == nil {
		return
	}
	s.counters = append(s.counters, probe{name, fn})
	s.ring(name, KindCounter)
}

// AddHist registers a cumulative-histogram probe. Each tick the
// histogram is diffed against the previous tick's clone and the
// interval's count/mean/p50/p99/min/stddev land in sub-series named
// "<name>.<stat>". Nil-safe; the probe may return nil.
func (s *Sampler) AddHist(name string, fn func() *metrics.Histogram) {
	if s == nil || fn == nil {
		return
	}
	s.hists = append(s.hists, histProbe{name: name, fn: fn})
	for _, sub := range histSubSeries {
		s.ring(name+"."+sub, KindHist)
	}
}

// OnSample registers an observer called after every tick with the tick
// time — observers may call Last/Dump. The Monitor hangs off this
// hook. Nil-safe.
func (s *Sampler) OnSample(fn func(at sim.Time)) {
	if s == nil || fn == nil {
		return
	}
	s.observers = append(s.observers, fn)
}

// Start schedules the first tick. Ticks self-reschedule every interval
// until Stop; forgetting Stop would keep the event loop alive forever,
// which is why Fabric.Stop owns the pairing. Nil-safe; Start is
// idempotent while running.
func (s *Sampler) Start(eng *sim.Engine) {
	if s == nil || eng == nil || s.started {
		return
	}
	s.started = true
	s.stopped = false
	eng.After(s.interval, func() { s.tick(eng) })
}

// Stop halts ticking after the current event; the rings keep their
// contents for export. Nil-safe.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopped = true
	s.started = false
}

// Ticks reports how many sampling ticks have fired.
func (s *Sampler) Ticks() int64 {
	if s == nil {
		return 0
	}
	return s.ticks
}

func (s *Sampler) tick(eng *sim.Engine) {
	if s.stopped {
		return
	}
	now := eng.Now()
	for _, p := range s.gauges {
		s.rings[p.name].push(SeriesPoint{T: now, V: p.fn()})
	}
	for _, p := range s.counters {
		s.rings[p.name].push(SeriesPoint{T: now, V: p.fn()})
	}
	for i := range s.hists {
		hp := &s.hists[i]
		cur := hp.fn()
		h := Summarize(cur.DeltaFrom(hp.prev))
		hp.prev = cur.Clone()
		stats := [...]float64{float64(h.Count), h.MeanUs, h.P50Us, h.P99Us, h.MinUs, h.StddevUs}
		for j, sub := range histSubSeries {
			s.rings[hp.name+"."+sub].push(SeriesPoint{T: now, V: stats[j]})
		}
	}
	s.ticks++
	for _, fn := range s.observers {
		fn(now)
	}
	eng.After(s.interval, func() { s.tick(eng) })
}

// Last returns up to n most-recent points of the named series, oldest
// first. Nil-safe; unknown series return nil.
func (s *Sampler) Last(name string, n int) []SeriesPoint {
	if s == nil || n <= 0 {
		return nil
	}
	r, ok := s.rings[name]
	if !ok {
		return nil
	}
	return r.last(n)
}

// rates derives units-per-second-of-virtual-time points from
// consecutive counter samples.
func rates(pts []SeriesPoint) []SeriesPoint {
	if len(pts) < 2 {
		return nil
	}
	out := make([]SeriesPoint, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		dt := pts[i].T - pts[i-1].T
		if dt <= 0 {
			continue
		}
		dv := pts[i].V - pts[i-1].V
		out = append(out, SeriesPoint{T: pts[i].T, V: dv / (float64(dt) / 1e9)})
	}
	return out
}

// Dump exports every ring, oldest point first, with counter rates
// attached.
func (s *Sampler) Dump() SeriesDump {
	if s == nil {
		return SeriesDump{}
	}
	d := SeriesDump{IntervalUs: float64(s.interval) / 1e3, Ticks: s.ticks}
	for _, name := range s.order {
		r := s.rings[name]
		sd := SeriesData{Name: name, Kind: r.kind, Points: r.last(len(r.pts))}
		if r.kind == KindCounter {
			sd.Rates = rates(sd.Points)
		}
		d.Series = append(d.Series, sd)
	}
	return d
}
