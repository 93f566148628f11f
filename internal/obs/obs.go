// Package obs is the observability spine of the serving stack: a
// per-request trace span threaded from the frontend through admission,
// the multi-tenant scheduler, the OS block layer and the device, so
// every nanosecond of a request's life is attributed to a stage and
// any tail-latency number can be explained rather than guessed at.
//
// The paper's core complaint is that the block interface hides where
// time goes — a GC strike looks like random device slowness. Owning
// every layer lets us do the opposite: serve.Frontend opens a Span,
// serve.Shard stamps the admission-queue wait, sched stamps DRR queue
// wait (plus the GC-deferral overlay), blockdev stamps dispatch→complete
// device service, and the FTL annotates GC interference (did the op
// land on a collecting chip? under an active defer lease? did a forced
// collection fire in its shadow?).
//
// Stages are exclusive: frontend routing, admission queue, scheduler
// queue and device service are measured directly; the serve stage
// (shard CPU + storage-engine work between I/Os) is the closing
// remainder, so per-span accounting always sums to the end-to-end
// latency. GC-deferred time overlaps the scheduler stage and is kept as
// an overlay, outside the closure sum.
//
// A Tracer aggregates closed spans per class × stage into
// metrics.Histogram machinery and keeps a bounded flight recorder —
// the slowest-N complete spans per class — so a p99 can be unpacked
// into "71% sched queue, 22% device service on a collecting chip".
// All methods are nil-safe: with telemetry off every hook is a nil
// check.
//
// Nothing in the package is goroutine-safe, and nothing needs to be:
// the simulator runs one entity at a time, so every span stamp, sampler
// tick, profiler tap and registry export happens on the simulation
// thread. The one other goroutine, the HTTP exposition, never reads
// this state — it hands each request to that thread (Exposition).
package obs

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Stage identifies one exclusive segment of a request's life.
type Stage int

const (
	// StageFrontend is routing: span open to shard-queue arrival.
	StageFrontend Stage = iota
	// StageAdmission is the shard admission-queue wait: arrival to
	// worker dequeue.
	StageAdmission
	// StageSched is scheduler queue wait: DRR enqueue to dispatch,
	// summed over every I/O the request issued (includes any
	// queue-depth gating in the block layer).
	StageSched
	// StageDevice is device service: dispatch to completion, summed
	// over every I/O the request issued.
	StageDevice
	// StageServe is the closing remainder: shard CPU and
	// storage-engine work between I/Os, computed at span close as
	// end-to-end minus the measured stages.
	StageServe
	// NumStages bounds per-stage arrays.
	NumStages
)

var stageNames = [NumStages]string{"frontend", "admission", "sched", "device", "serve"}

// String names the stage.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Span is one request's trace: its record, stamped in place by each
// layer as the request passes and sealed at Close. Every method is safe
// on a nil receiver (telemetry off).
type Span struct {
	tr     *Tracer
	rec    SpanRecord
	closed bool
}

// SpanCounts are the six per-span counts: I/Os that landed on a
// collecting chip, I/Os under an active defer lease, forced collections
// in the span's shadow, reads steered off the round-robin replica (and
// the subset that dodged a collecting device), and device I/Os issued.
// A span's record carries them; its class aggregate sums them.
type SpanCounts struct {
	GCCollisions int64 `json:"gc_collisions"`
	GCLeaseHits  int64 `json:"gc_lease_hits"`
	GCForced     int64 `json:"gc_forced"`
	Steered      int64 `json:"steered"`
	AvoidedGC    int64 `json:"avoided_gc"`
	IOs          int64 `json:"ios"`
}

func (c *SpanCounts) add(o SpanCounts) {
	c.GCCollisions += o.GCCollisions
	c.GCLeaseHits += o.GCLeaseHits
	c.GCForced += o.GCForced
	c.Steered += o.Steered
	c.AvoidedGC += o.AvoidedGC
	c.IOs += o.IOs
}

// SpanRecord is a span's content: stage durations, the GC-deferral
// overlay (a wait that overlaps StageSched rather than extending the
// closure sum), the last collecting chip an I/O touched, and the
// counts. The flight recorder keeps closed spans' records, and
// snapshots export them.
type SpanRecord struct {
	Class      string              `json:"class"`
	Op         string              `json:"op"`
	Start      sim.Time            `json:"start_ns"`
	Total      sim.Time            `json:"total_ns"`
	Stages     [NumStages]sim.Time `json:"stages_ns"`
	GCDeferred sim.Time            `json:"gc_deferred_ns"`
	GCChip     int                 `json:"gc_chip"`
	SpanCounts
}

// StagePct is the named stage's share of the record's total, in
// percent.
func (r SpanRecord) StagePct(s Stage) float64 {
	if r.Total <= 0 {
		return 0
	}
	return 100 * float64(r.Stages[s]) / float64(r.Total)
}

// Explain renders the record as a one-line attribution, e.g.
// "812.4us get: 71% sched, 22% device (chip 3 collecting), 5% admission".
func (r SpanRecord) Explain() string {
	type part struct {
		s   Stage
		pct float64
	}
	parts := make([]part, 0, NumStages)
	for s := Stage(0); s < NumStages; s++ {
		if pct := r.StagePct(s); pct >= 0.5 {
			parts = append(parts, part{s, pct})
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].pct > parts[j].pct })
	out := fmt.Sprintf("%.1fus %s %s:", float64(r.Total)/1e3, r.Class, r.Op)
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf(" %.0f%% %s", p.pct, p.s)
		if p.s == StageDevice && r.GCCollisions > 0 {
			out += fmt.Sprintf(" (chip %d collecting", r.GCChip)
			if r.GCLeaseHits > 0 {
				out += ", lease active"
			}
			if r.GCForced > 0 {
				out += ", forced GC"
			}
			out += ")"
		}
	}
	return out
}

// Stamp adds d to the stage's accumulated duration. Negative stamps
// are dropped.
func (s *Span) Stamp(st Stage, d sim.Time) {
	if s == nil || d <= 0 || st < 0 || st >= NumStages {
		return
	}
	s.rec.Stages[st] += d
}

// MarkArrived stamps the frontend stage: span open to shard-queue
// arrival. First arrival wins (quorum writes carry the span on one
// replica only).
func (s *Span) MarkArrived(at sim.Time) {
	if s == nil {
		return
	}
	if s.rec.Stages[StageFrontend] == 0 && at > s.rec.Start {
		s.rec.Stages[StageFrontend] = at - s.rec.Start
	}
}

// NoteIO counts one device I/O issued on the span's behalf.
func (s *Span) NoteIO() {
	if s == nil {
		return
	}
	s.rec.IOs++
}

// NoteGCDeferred adds overlay time the request spent parked by the
// GC-aware deferral policy.
func (s *Span) NoteGCDeferred(d sim.Time) {
	if s == nil || d <= 0 {
		return
	}
	s.rec.GCDeferred += d
}

// NoteGC annotates one I/O's GC context: the chip it touched, whether
// that chip was collecting, whether a host defer lease was active, and
// how many forced collections (defer-floor hits) fired in its shadow.
func (s *Span) NoteGC(chip int, collecting, lease bool, forced int64) {
	if s == nil {
		return
	}
	if collecting {
		s.rec.GCCollisions++
		s.rec.GCChip = chip
	}
	if lease {
		s.rec.GCLeaseHits++
	}
	if forced > 0 {
		s.rec.GCForced += forced
	}
}

// NoteSteered annotates a read routed by live device signals to a
// replica the round-robin cursor would not have picked; avoided
// marks the subset that dodged a collecting device.
func (s *Span) NoteSteered(avoided bool) {
	if s == nil {
		return
	}
	s.rec.Steered++
	if avoided {
		s.rec.AvoidedGC++
	}
}

// Close seals the span at time at: the serve stage becomes the
// remainder (end-to-end minus measured stages), and the span is folded
// into the tracer's aggregates and flight recorder. Spans closed with
// a non-nil error are counted but not aggregated (they are not latency
// samples). Closing twice is a no-op.
func (s *Span) Close(at sim.Time, err error) {
	if s == nil {
		return
	}
	if s.closed {
		return
	}
	tr, r := s.tr, &s.rec
	s.closed = true
	r.Total = at - r.Start
	if r.Total < 0 {
		r.Total = 0
	}
	var measured sim.Time
	for st := Stage(0); st < NumStages; st++ {
		if st != StageServe {
			measured += r.Stages[st]
		}
	}
	if measured > r.Total {
		// Stages over-count the request's life — double-stamped
		// somewhere. Surface it instead of hiding it in the remainder.
		tr.overruns++
		r.Stages[StageServe] = 0
	} else {
		r.Stages[StageServe] = r.Total - measured
	}
	tr.closed++
	if err != nil {
		tr.errored++
		return
	}
	agg := tr.agg(r.Class)
	agg.total.Record(int64(r.Total))
	for st := Stage(0); st < NumStages; st++ {
		agg.stages[st].Record(int64(r.Stages[st]))
	}
	agg.gcDeferred.Record(int64(r.GCDeferred))
	agg.counts.add(r.SpanCounts)
	agg.offer(*r)
}

// classAgg is one class's per-stage aggregates plus its flight
// recorder ring (slowest-N closed spans, descending by total).
type classAgg struct {
	total      metrics.Histogram
	stages     [NumStages]metrics.Histogram
	gcDeferred metrics.Histogram
	counts     SpanCounts

	keep int
	ring []SpanRecord
}

// share is the stage's share (percent) of the class's mean end-to-end
// latency.
func (a *classAgg) share(st Stage) float64 {
	totalMean := a.total.Mean()
	if totalMean <= 0 {
		return 0
	}
	return 100 * a.stages[st].Mean() / totalMean
}

// offer inserts rec into the ring if it ranks among the slowest keep
// spans, evicting the fastest resident.
func (a *classAgg) offer(rec SpanRecord) {
	if a.keep <= 0 {
		return
	}
	if len(a.ring) < a.keep {
		a.ring = append(a.ring, rec)
	} else if rec.Total > a.ring[len(a.ring)-1].Total {
		a.ring[len(a.ring)-1] = rec
	} else {
		return
	}
	sort.SliceStable(a.ring, func(i, j int) bool { return a.ring[i].Total > a.ring[j].Total })
}

// Tracer opens spans, aggregates closed ones per class × stage, and
// binds in-flight spans to the simulated worker process executing
// them so lower layers can find the active span without threading it
// through every call. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	keep int

	order   []string
	classes map[string]*classAgg
	procs   map[*sim.Proc]*Span

	opened   int64
	closed   int64
	errored  int64
	overruns int64
}

// NewTracer returns a tracer whose flight recorder keeps the slowest
// keep spans per class (0 means 8).
func NewTracer(keep int) *Tracer {
	if keep <= 0 {
		keep = 8
	}
	return &Tracer{
		keep:    keep,
		classes: make(map[string]*classAgg),
		procs:   make(map[*sim.Proc]*Span),
	}
}

// agg returns the class aggregate, creating it.
func (tr *Tracer) agg(class string) *classAgg {
	a, ok := tr.classes[class]
	if !ok {
		a = &classAgg{keep: tr.keep}
		tr.classes[class] = a
		tr.order = append(tr.order, class)
	}
	return a
}

// Open starts a span for one request at time at. Returns nil on a nil
// tracer, so callers thread the result unconditionally.
func (tr *Tracer) Open(class, op string, at sim.Time) *Span {
	if tr == nil {
		return nil
	}
	tr.opened++
	return &Span{tr: tr, rec: SpanRecord{Class: class, Op: op, Start: at, GCChip: -1}}
}

// Bind associates the span with the simulated process executing its
// request, for the duration of the shard's execute phase.
func (tr *Tracer) Bind(p *sim.Proc, s *Span) {
	if tr == nil || p == nil {
		return
	}
	tr.procs[p] = s
}

// Unbind clears the process's span binding.
func (tr *Tracer) Unbind(p *sim.Proc) {
	if tr == nil || p == nil {
		return
	}
	delete(tr.procs, p)
}

// At returns the span bound to the process, or nil.
func (tr *Tracer) At(p *sim.Proc) *Span {
	if tr == nil || p == nil {
		return nil
	}
	return tr.procs[p]
}

// Opened counts spans opened; Closed counts spans closed; Errored
// counts spans closed with an error; Overruns counts spans whose
// measured stages exceeded their end-to-end time (should be zero).
func (tr *Tracer) Opened() int64 {
	if tr == nil {
		return 0
	}
	return tr.opened
}

// Closed counts spans closed (with or without error).
func (tr *Tracer) Closed() int64 {
	if tr == nil {
		return 0
	}
	return tr.closed
}

// Overruns counts closure violations (measured stages > end-to-end).
func (tr *Tracer) Overruns() int64 {
	if tr == nil {
		return 0
	}
	return tr.overruns
}

// TotalHist returns the class's end-to-end latency histogram (nil if
// the class has no closed spans).
func (tr *Tracer) TotalHist(class string) *metrics.Histogram {
	if tr == nil {
		return nil
	}
	a, ok := tr.classes[class]
	if !ok {
		return nil
	}
	return &a.total
}

// Slowest returns the class's flight-recorder contents, slowest first.
func (tr *Tracer) Slowest(class string) []SpanRecord {
	if tr == nil {
		return nil
	}
	a, ok := tr.classes[class]
	if !ok {
		return nil
	}
	out := make([]SpanRecord, len(a.ring))
	copy(out, a.ring)
	return out
}

// AtQuantile returns the flight-recorder span whose total is nearest
// the class's q-quantile end-to-end latency — the concrete request
// that explains a p99 number.
func (tr *Tracer) AtQuantile(class string, q float64) (SpanRecord, bool) {
	if tr == nil {
		return SpanRecord{}, false
	}
	a, ok := tr.classes[class]
	if !ok || len(a.ring) == 0 {
		return SpanRecord{}, false
	}
	target := a.total.Quantile(q)
	best := a.ring[0]
	bestDiff := diff64(int64(best.Total), target)
	for _, rec := range a.ring[1:] {
		if d := diff64(int64(rec.Total), target); d < bestDiff {
			best, bestDiff = rec, d
		}
	}
	return best, true
}

func diff64(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Explain renders the class's near-p99 flight-recorder span as a
// one-line stage attribution, or "" with no data.
func (tr *Tracer) Explain(class string) string {
	rec, ok := tr.AtQuantile(class, 0.99)
	if !ok {
		return ""
	}
	return "p99 " + rec.Explain()
}

// BreakdownTable renders the per-class × per-stage aggregate: sample
// count, mean/p50/p99 in microseconds and each stage's share of the
// mean end-to-end latency, followed by the overlay rows.
func (tr *Tracer) BreakdownTable(title string) *metrics.Table {
	tbl := metrics.NewTable(title, "class", "stage", "count", "mean us", "p50 us", "p99 us", "share %")
	if tr == nil {
		return tbl
	}
	for _, class := range tr.order {
		a := tr.classes[class]
		for st := Stage(0); st < NumStages; st++ {
			h := &a.stages[st]
			tbl.AddRow(class, st.String(), h.Count(), h.Mean()/1e3,
				float64(h.P50())/1e3, float64(h.P99())/1e3, a.share(st))
		}
		tbl.AddRow(class, "total", a.total.Count(), a.total.Mean()/1e3,
			float64(a.total.P50())/1e3, float64(a.total.P99())/1e3, 100.0)
	}
	return tbl
}

// StageShare returns the stage's share (percent) of the class's mean
// end-to-end latency.
func (tr *Tracer) StageShare(class string, st Stage) float64 {
	if tr == nil || st < 0 || st >= NumStages {
		return 0
	}
	a, ok := tr.classes[class]
	if !ok {
		return 0
	}
	return a.share(st)
}

// Reset clears aggregates, rings and counters but keeps proc bindings
// (in-flight requests keep tracing into the fresh aggregates).
func (tr *Tracer) Reset() {
	if tr == nil {
		return
	}
	tr.order = nil
	tr.classes = make(map[string]*classAgg)
	tr.opened, tr.closed, tr.errored, tr.overruns = 0, 0, 0, 0
}

// StageTrace is one stage's aggregate in a snapshot.
type StageTrace struct {
	Stage    string      `json:"stage"`
	Hist     HistSummary `json:"latency"`
	SharePct float64     `json:"share_pct"`
}

// ClassTrace is one class's aggregate in a snapshot.
type ClassTrace struct {
	Class      string       `json:"class"`
	Total      HistSummary  `json:"total"`
	Stages     []StageTrace `json:"stages"`
	GCDeferred HistSummary  `json:"gc_deferred"`
	SpanCounts
	Slowest []SpanRecord `json:"slowest"`
}

// TraceSnapshot is the tracer's full exportable state.
type TraceSnapshot struct {
	Opened   int64        `json:"opened"`
	Closed   int64        `json:"closed"`
	Errored  int64        `json:"errored"`
	Overruns int64        `json:"overruns"`
	Classes  []ClassTrace `json:"classes"`
}

// Snapshot exports the tracer's aggregates and flight recorder as a
// JSON-able document.
func (tr *Tracer) Snapshot() TraceSnapshot {
	var snap TraceSnapshot
	if tr == nil {
		return snap
	}
	snap.Opened, snap.Closed = tr.opened, tr.closed
	snap.Errored, snap.Overruns = tr.errored, tr.overruns
	for _, class := range tr.order {
		a := tr.classes[class]
		ct := ClassTrace{
			Class:      class,
			Total:      Summarize(&a.total),
			GCDeferred: Summarize(&a.gcDeferred),
			SpanCounts: a.counts,
		}
		for st := Stage(0); st < NumStages; st++ {
			ct.Stages = append(ct.Stages, StageTrace{
				Stage:    st.String(),
				Hist:     Summarize(&a.stages[st]),
				SharePct: a.share(st),
			})
		}
		ct.Slowest = append(ct.Slowest, a.ring...)
		snap.Classes = append(snap.Classes, ct)
	}
	return snap
}
