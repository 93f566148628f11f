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

// ring keeps the newest values pushed, as many as it was made for: once
// full, each push overwrites the oldest. The sampler keeps one per
// series, the monitor one of health events.
type ring[T any] struct {
	items []T // grows to its capacity, then stays
	next  int // once full, the oldest item: the next push's slot
}

func newRing[T any](size int) ring[T] { return ring[T]{items: make([]T, 0, size)} }

func (r *ring[T]) push(v T) {
	if len(r.items) < cap(r.items) {
		r.items = append(r.items, v)
		return
	}
	r.items[r.next] = v
	r.next = (r.next + 1) % len(r.items)
}

// back reads in place the value pushed i pushes before the newest one
// (0 = the newest); ok is false when the ring holds i values or fewer.
func (r *ring[T]) back(i int) (v T, ok bool) {
	if i >= len(r.items) {
		return v, false
	}
	return r.items[(r.next+len(r.items)-1-i)%len(r.items)], true
}

// last returns up to n of the newest values, oldest first.
func (r *ring[T]) last(n int) []T {
	n = min(n, len(r.items))
	out := make([]T, 0, n)
	for i := len(r.items) - n; i < len(r.items); i++ {
		out = append(out, r.items[(r.next+i)%len(r.items)])
	}
	return out
}

// series is one sampled series: its name, its kind, the probe that
// reads it each tick and its ring of points. A histogram's sub-series
// have no reader: the histogram probe on the first of them fills all
// six.
type series struct {
	name string
	kind SeriesKind
	read func() float64
	hist *histProbe
	ring[SeriesPoint]
}

// delta is the change in a counter series over its last n intervals;
// ok is false while the ring holds n points or fewer.
func (sr *series) delta(n int) (float64, bool) {
	newest, _ := sr.back(0)
	oldest, ok := sr.back(n)
	return newest.V - oldest.V, ok
}

// deltaUpTo is delta over the last n intervals, or over every interval
// the ring holds when that is fewer (0 with fewer than two points).
func (sr *series) deltaUpTo(n int) float64 {
	d, _ := sr.delta(max(0, min(n, len(sr.items)-1)))
	return d
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
	series   []*series // in attach order, which is the dump order

	observers []func(at sim.Time)

	eng     *sim.Engine
	next    func() // the tick, bound once so rescheduling allocates nothing
	ticks   int64
	stopped bool
}

// histProbe diffs a cumulative histogram against its previous tick's
// clone and fills the sub-series AddHist made for it.
type histProbe struct {
	fn   func() *metrics.Histogram
	prev *metrics.Histogram
	sub  [len(histSubSeries)]*series
}

// histSubSeries are the derived per-interval statistics every histogram
// probe expands into, in ring-attachment order.
var histSubSeries = [...]string{"count", "mean_us", "p50_us", "p99_us", "min_us", "stddev_us"}

// NewSampler returns a sampler with the given period (zero = 1ms).
func NewSampler(interval sim.Time) *Sampler {
	if interval <= 0 {
		interval = 1 * sim.Millisecond
	}
	s := &Sampler{interval: interval}
	s.next = s.tick
	return s
}

// Interval reports the sampling period.
func (s *Sampler) Interval() sim.Time {
	if s == nil {
		return 0
	}
	return s.interval
}

func (s *Sampler) add(name string, kind SeriesKind, read func() float64) *series {
	sr := &series{name: name, kind: kind, read: read, ring: newRing[SeriesPoint](ringCapacity)}
	s.series = append(s.series, sr)
	return sr
}

// find returns the series attached under name; a watch over a series
// nobody samples would never become ready, so it panics.
func (s *Sampler) find(name string) *series {
	if s != nil {
		for _, sr := range s.series {
			if sr.name == name {
				return sr
			}
		}
	}
	panic("obs: no sampled series " + name)
}

// AddGauge registers an instantaneous-value probe. Nil-safe.
func (s *Sampler) AddGauge(name string, fn func() float64) {
	if s == nil || fn == nil {
		return
	}
	s.add(name, KindGauge, fn)
}

// AddCounter registers a cumulative-total probe; rates are derived at
// export time from consecutive point deltas. Nil-safe.
func (s *Sampler) AddCounter(name string, fn func() float64) {
	if s == nil || fn == nil {
		return
	}
	s.add(name, KindCounter, fn)
}

// AddHist registers a cumulative-histogram probe. Each tick the
// histogram is diffed against the previous tick's clone and the
// interval's count/mean/p50/p99/min/stddev land in sub-series named
// "<name>.<stat>". Nil-safe; the probe may return nil.
func (s *Sampler) AddHist(name string, fn func() *metrics.Histogram) {
	if s == nil || fn == nil {
		return
	}
	hp := &histProbe{fn: fn}
	for i, sub := range histSubSeries {
		hp.sub[i] = s.add(name+"."+sub, KindHist, nil)
	}
	hp.sub[0].hist = hp
}

// sample pushes one interval's statistics into the probe's sub-series.
func (hp *histProbe) sample(now sim.Time) {
	cur := hp.fn()
	h := Summarize(cur.DeltaFrom(hp.prev))
	hp.prev = cur.Clone()
	stats := [...]float64{float64(h.Count), h.MeanUs, h.P50Us, h.P99Us, h.MinUs, h.StddevUs}
	for i, sr := range hp.sub {
		sr.push(SeriesPoint{T: now, V: stats[i]})
	}
}

// OnSample registers an observer called after every tick with the tick
// time — observers may call Dump. The Monitor hangs off this hook.
// Nil-safe.
func (s *Sampler) OnSample(fn func(at sim.Time)) {
	if s == nil || fn == nil {
		return
	}
	s.observers = append(s.observers, fn)
}

// Start schedules the first tick at the first instant after now that
// lies a whole number of intervals past origin, so a sampler started
// late keeps the phase it would have had from origin. Ticks
// self-reschedule every interval until Stop, as daemon events
// (sim.Engine.ScheduleDaemon): a tick keeps no run going on its own and
// never moves the clock past the model's last event, so telemetry on
// and off end a run at the same instant. Nil-safe; a sampler starts
// once.
func (s *Sampler) Start(eng *sim.Engine, origin sim.Time) {
	if s == nil || eng == nil || s.eng != nil {
		return
	}
	s.eng = eng
	eng.ScheduleDaemon(origin+((eng.Now()-origin)/s.interval+1)*s.interval, s.next)
}

// Stop halts ticking after the current event; the rings keep their
// contents for export. Nil-safe.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopped = true
}

func (s *Sampler) tick() {
	if s.stopped {
		return
	}
	now := s.eng.Now()
	for _, sr := range s.series {
		if sr.read != nil {
			sr.push(SeriesPoint{T: now, V: sr.read()})
		} else if sr.hist != nil {
			sr.hist.sample(now)
		}
	}
	s.ticks++
	for _, fn := range s.observers {
		fn(now)
	}
	s.eng.ScheduleDaemon(now+s.interval, s.next)
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
	for _, sr := range s.series {
		sd := SeriesData{Name: sr.name, Kind: sr.kind, Points: sr.last(ringCapacity)}
		if sr.kind == KindCounter {
			sd.Rates = rates(sd.Points)
		}
		d.Series = append(d.Series, sd)
	}
	return d
}
