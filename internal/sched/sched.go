package sched

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Class partitions tenants by what they are optimizing for.
type Class int

// Tenant classes.
const (
	// LatencySensitive tenants care about per-request tail latency
	// (point reads, commit waits).
	LatencySensitive Class = iota
	// Throughput tenants care about aggregate bandwidth (scans,
	// batch loads, background maintenance) and tolerate deferral.
	Throughput
)

// classSlot maps a class onto the two-slot per-class ledgers (latency
// first; anything unknown is billed as throughput).
func classSlot(c Class) int {
	if c == LatencySensitive {
		return 0
	}
	return 1
}

// String names the class.
func (c Class) String() string {
	switch c {
	case LatencySensitive:
		return "latency"
	case Throughput:
		return "throughput"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Config parameterizes a Scheduler. The zero value is the default: a
// GC-aware scheduler (see the constants below) without host→device
// coordination.
type Config struct {
	// GCCoordinate enables the host→device half of the peer interface:
	// while latency-sensitive tenants are backlogged, the scheduler
	// leases GC deferrals from the device (SetGCControl), so background
	// relocation traffic yields the LUNs to the burst; the lease is
	// released when the burst drains and is always bounded by the
	// device's own free-pool floor.
	GCCoordinate bool
	// GCLeaseAdaptive sizes each lease by the device's reported
	// reclamation pressure instead of the fixed gcDeferSlice: the
	// scheduler polls GCControl.GCUrgency on every lease decision and
	// asks for half a slice from an elevated device and the full slice
	// otherwise. An urgent device refuses (GCControl.DeferGC), and the
	// host backs off as it does after any refusal.
	GCLeaseAdaptive bool
}

// The scheduling policy's fixed parameters.
const (
	// quantum is the deficit credit per unit weight per DRR round (cost
	// units).
	quantum = 1
	// gcDeferLimit bounds how long one throughput request may be held
	// back while the device reports active garbage collection and a
	// latency-sensitive tenant has queued requests, so background
	// tenants cannot starve outright.
	gcDeferLimit = 2 * sim.Millisecond
	// gcDeferSlice is the length of each GC deferral lease; the lease is
	// renewed while the burst persists, so its length only bounds how
	// long GC stays parked after the host goes quiet without an explicit
	// resume.
	gcDeferSlice = sim.Millisecond
	// gcDeferBacklog is the latency-sensitive backlog (requests) at or
	// above which the scheduler leases a deferral: any latency-class
	// request waiting is reason to hold background GC.
	gcDeferBacklog = 1
)

// DefaultConfig returns the standard scheduler parameters (the zero
// Config).
func DefaultConfig() Config { return Config{} }

// request is one queued dispatch.
type request struct {
	cost       int
	at         sim.Time // enqueue time
	deferred   bool     // GC-deferral in effect (counted once)
	deferredAt sim.Time // when the deferral began
	dispatch   func()
	span       *obs.Span // the request's trace span (nil when tracing is off)
}

// Tenant is one registered traffic source. Create with
// Scheduler.AddTenant; fields are managed by the scheduler.
type Tenant struct {
	s      *Scheduler
	name   string
	class  Class
	weight int

	deficit int
	q       sim.Queue[request] // waiting requests, oldest first

	// Enqueued and Dispatched count requests through this tenant.
	Enqueued   int64
	Dispatched int64
}

// Scheduler arbitrates tenant-tagged requests onto a single downstream
// queue. It is single-threaded, like everything on a sim.Engine.
type Scheduler struct {
	eng *sim.Engine
	cfg Config

	tenants []*Tenant
	rr      int // round-robin scan origin

	backlog        int // queued requests, all tenants
	latencyBacklog int // queued requests of latency-sensitive tenants

	gcChips int // device-reported chips currently garbage-collecting

	// Host→device GC coordination (Config.GCCoordinate): the device
	// control handle, the expiry of the currently leased deferral, and
	// the earliest instant a refused lease may be retried.
	gcctl        GCControl
	gcDeferUntil sim.Time
	gcRetryAt    sim.Time
	gcLeaseSlice sim.Time // length of the currently granted lease

	// The health monitor lease grants are reported to (nil when the
	// fabric does not monitor) and the device label they carry.
	monitor *obs.Monitor
	evlabel string

	// GCDeferrals counts throughput requests held back at least once by
	// the GC-aware policy.
	GCDeferrals int64
	// coord is the host side of the GC-coordination ledger: leases
	// requested (fresh or renewal) and explicit resumes. Refusals are
	// the device's to count (its side's Refused).
	coord metrics.GCCoord

	// waitByClass accumulates total queue wait (enqueue to dispatch)
	// per request class: a dispatch's wait is recorded here and in its
	// span's sched stage, nowhere else.
	waitByClass [2]sim.Time
}

// GCControl is what the scheduler needs from a device to shape its
// garbage collection — the host→device half of the paper's peer
// interface. ftl.PageFTL implements it; blockdev.Stack.AttachScheduler
// wires a device's (ssd.Device.Peer) on every stack mode.
type GCControl interface {
	// DeferGC asks the device to park background GC until the deadline,
	// reporting whether the request was honored (a device at its floor
	// refuses). Honored deferrals remain bounded by the device's own
	// free-pool floor.
	DeferGC(deadline sim.Time) bool
	// ResumeGC releases an active deferral early.
	ResumeGC()
	// GCUrgency reports how much deferral headroom remains, which the
	// GCLeaseAdaptive policy sizes its leases by.
	GCUrgency() ftl.GCUrgency
}

// New builds a scheduler on eng.
func New(eng *sim.Engine, cfg Config) *Scheduler {
	return &Scheduler{eng: eng, cfg: cfg, coord: metrics.NewGCCoord()}
}

// SetGCControl hands the scheduler the device's GC control surface.
// With Config.GCCoordinate unset the handle is kept but unused, so
// wiring it unconditionally (as blockdev.Stack.AttachScheduler does) is
// free.
func (s *Scheduler) SetGCControl(ctl GCControl) { s.gcctl = ctl }

// SetEventSink reports lease grants to the health monitor m, labeled
// with the device this scheduler fronts. A nil monitor detaches.
func (s *Scheduler) SetEventSink(m *obs.Monitor, label string) {
	s.monitor, s.evlabel = m, label
}

// maybeDeferGC leases (or renews) a device GC deferral when the
// latency-sensitive backlog warrants it. It runs on latency enqueues
// and on pops that leave the backlog above the threshold, so a burst
// that drains slowly keeps its lease alive. Leases are renewed once
// the previous one is at least half spent, and a refusal backs off for
// half a slice, so the control traffic stays O(1) per lease rather
// than per request. With GCLeaseAdaptive the slice itself is sized by
// the device's reported headroom on every lease decision.
func (s *Scheduler) maybeDeferGC() {
	if !s.cfg.GCCoordinate || s.gcctl == nil || s.latencyBacklog < gcDeferBacklog {
		return
	}
	now := s.eng.Now()
	if now < s.gcRetryAt {
		return // the device refused recently; don't spam it
	}
	// Freshness is judged against the length of the lease actually
	// granted (an elevated-urgency half-slice renews at its own
	// half-life), and gates everything below: urgency is polled and
	// the device asked only when a lease decision is due.
	fresh := s.gcLeaseSlice
	if fresh <= 0 {
		fresh = gcDeferSlice
	}
	if s.gcDeferUntil-now > fresh/2 {
		return // current lease still fresh
	}
	slice := gcDeferSlice
	if s.cfg.GCLeaseAdaptive && s.gcctl.GCUrgency() == ftl.GCElevated {
		// GC already wants to run: every deferred instant spends real
		// free-pool headroom, so lease in half slices and re-poll
		// sooner.
		slice /= 2
	}
	until := now + slice
	s.coord.HostRequests++
	if s.gcctl.DeferGC(until) {
		s.gcDeferUntil = until
		s.gcLeaseSlice = slice
		if s.monitor != nil {
			s.monitor.Emit(obs.HealthEvent{
				Kind: obs.EventLeaseGrant, At: now, Name: s.evlabel,
				Value:  slice.Micros(),
				Detail: "GC deferral leased for " + slice.String(),
			})
		}
	} else {
		s.gcRetryAt = now + gcDeferSlice/2
	}
}

// GCCoord returns the host side of the coordination ledger (merge it
// with the device side via metrics.GCCoord.Add, as serve.Fabric does).
func (s *Scheduler) GCCoord() metrics.GCCoord { return s.coord }

// maybeResumeGC releases the deferral lease once no latency-sensitive
// request is waiting — the burst drained, the device may collect. The
// device call is deferred to the event loop rather than made inline:
// it runs inside the pop that drained the burst, before that latency
// request is dispatched, and GC commands must not reach the chips ahead
// of the latency request that drained the burst. This resume is the
// one event the scheduler schedules.
func (s *Scheduler) maybeResumeGC() {
	if !s.cfg.GCCoordinate || s.gcctl == nil || s.latencyBacklog > 0 {
		return
	}
	if s.gcDeferUntil > s.eng.Now() {
		s.gcDeferUntil = 0
		s.coord.HostResumes++
		ctl := s.gcctl
		s.eng.Schedule(s.eng.Now(), func() {
			if s.gcDeferUntil > s.eng.Now() {
				return // a fresh lease raced in before the resume fired
			}
			ctl.ResumeGC()
		})
	}
}

// AddTenant registers a traffic source. Weight sets its fair share
// relative to other tenants (minimum 1).
func (s *Scheduler) AddTenant(name string, class Class, weight int) *Tenant {
	if weight < 1 {
		weight = 1
	}
	t := &Tenant{s: s, name: name, class: class, weight: weight}
	s.tenants = append(s.tenants, t)
	return t
}

// WaitTotals reports cumulative queue wait (enqueue to dispatch) per
// request class, keyed by class name — the dispatch-wait overlay the
// resource profiler reads as a per-device wait source (obs.Profiler.
// AttachWaits), diffing it against its window's start.
func (s *Scheduler) WaitTotals() map[string]sim.Time {
	return map[string]sim.Time{
		LatencySensitive.String(): s.waitByClass[0],
		Throughput.String():       s.waitByClass[1],
	}
}

// SetGCActiveChips is the device-to-host notification sink: the device
// reports how many of its chips are currently garbage-collecting.
// blockdev.Stack.AttachScheduler wires it to the device's page FTL
// (ftl.PageFTL.SetGCNotifier). It only records the count: eligibility
// is judged when the stack next pulls (NextBatch), and an edge needs no
// pull of its own (see NextBatch).
func (s *Scheduler) SetGCActiveChips(chips int) { s.gcChips = chips }

// GCActiveChips reports the device GC load last notified.
func (s *Scheduler) GCActiveChips() int { return s.gcChips }

// Backlog reports how many requests are queued, across all tenants.
func (s *Scheduler) Backlog() int { return s.backlog }

// Item is one request of an enqueue (EnqueueBatch).
type Item struct {
	// Cost is the request's DRR billing (minimum 1).
	Cost int
	// Span is the request's trace span: the scheduler stamps its
	// queue-wait stage at dispatch. A nil span traces nothing.
	Span *obs.Span
	// Dispatch runs when the scheduler selects the request.
	Dispatch func()
}

// EnqueueBatch queues a batch of requests for tenant t in one
// bookkeeping pass; each Dispatch runs when NextBatch selects it. The
// queue has no bound of its own: the shard's admission queue and worker
// count bound what reaches it. Billing is per request; what a batch
// amortizes is the per-op control work: the GC-deferral lease decision
// runs once per batch instead of once per latency-class request.
func (s *Scheduler) EnqueueBatch(t *Tenant, items []Item) {
	if len(items) == 0 {
		return
	}
	now := s.eng.Now()
	for _, it := range items {
		cost := it.Cost
		if cost < 1 {
			cost = 1
		}
		t.q.Push(request{cost: cost, at: now, dispatch: it.Dispatch, span: it.Span})
	}
	t.Enqueued += int64(len(items))
	s.backlog += len(items)
	if t.class == LatencySensitive {
		s.latencyBacklog += len(items)
		s.maybeDeferGC()
	}
}

// eligible reports whether tenant t's head request may dispatch now.
func (s *Scheduler) eligible(t *Tenant, now sim.Time) bool {
	if s.gcChips > 0 && t.class == Throughput && s.latencyBacklog > 0 {
		head := t.q.At(0)
		if !head.deferred {
			head.deferred = true
			head.deferredAt = now
			s.GCDeferrals++
		}
		// The limit bounds time spent deferred, not total queue age, so
		// a request that already waited its fair-queueing turn can still
		// be held back briefly while GC and latency traffic overlap.
		if now-head.deferredAt < gcDeferLimit {
			return false
		}
	}
	return true
}

// pop dequeues tenant t's head request and settles its accounting.
func (s *Scheduler) pop(t *Tenant, now sim.Time) request {
	head := t.q.Pop()
	if t.q.Len() == 0 {
		// Standard DRR: an idling tenant forfeits its deficit, so credit
		// cannot be hoarded across idle periods.
		t.deficit = 0
	}
	t.Dispatched++
	s.waitByClass[classSlot(t.class)] += now - head.at
	s.backlog--
	head.span.Stamp(obs.StageSched, now-head.at)
	if t.class == LatencySensitive {
		s.latencyBacklog--
		if s.latencyBacklog == 0 {
			s.maybeResumeGC()
		} else {
			// The burst is still draining: keep the lease alive even if
			// no new latency request arrives to renew it.
			s.maybeDeferGC()
		}
	}
	return head
}

// NextBatch selects up to max eligible requests under deficit round
// robin, honoring the GC-aware policy, and appends their
// dispatch functions to buf (pass a reused buffer's [:0] to drain
// without allocating). Every selection is made before the caller runs
// any dispatch.
//
// A short return means the queues are empty: eligible defers only
// throughput tenants, and only while a latency-sensitive request —
// always eligible — is queued, so selectOne fails only when nothing is
// queued. That is why the scheduler never calls its stack back: the
// stack pulls whenever a slot frees or a request arrives, so while
// anything is queued no slot stays free, and a GC edge or a deferral
// aging out changes which request goes next, never whether one goes.
func (s *Scheduler) NextBatch(max int, buf []func()) []func() {
	if s.backlog == 0 {
		return buf
	}
	now := s.eng.Now()
	for n := 0; n < max; n++ {
		d, ok := s.selectOne(now)
		if !ok {
			break
		}
		buf = append(buf, d)
	}
	return buf
}

// selectOne runs one DRR selection at instant now.
func (s *Scheduler) selectOne(now sim.Time) (dispatch func(), ok bool) {
	n := len(s.tenants)
	// Two scans at most: if the first finds eligible tenants but none
	// affordable, crediting jumps everyone forward by exactly the
	// number of whole DRR rounds that makes the cheapest head
	// affordable (equivalent to iterating rounds one by one, without a
	// bound that a large per-op cost could exhaust), so the second
	// scan dispatches.
	for {
		anyEligible := false
		for i := 0; i < n; i++ {
			idx := (s.rr + i) % n
			t := s.tenants[idx]
			if t.q.Len() == 0 || !s.eligible(t, now) {
				continue
			}
			anyEligible = true
			if cost := t.q.At(0).cost; t.deficit >= cost {
				t.deficit -= cost
				head := s.pop(t, now)
				s.rr = (idx + 1) % n
				return head.dispatch, true
			}
		}
		if !anyEligible {
			return nil, false
		}
		rounds := 0
		for _, t := range s.tenants {
			if t.q.Len() == 0 || !s.eligible(t, now) {
				continue
			}
			per := quantum * t.weight
			need := (t.q.At(0).cost - t.deficit + per - 1) / per
			if need < 1 {
				need = 1
			}
			if rounds == 0 || need < rounds {
				rounds = need
			}
		}
		for _, t := range s.tenants {
			if t.q.Len() > 0 && s.eligible(t, now) {
				t.deficit += rounds * quantum * t.weight
			}
		}
	}
}
