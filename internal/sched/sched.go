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
	// asks for the full slice from a relaxed device, half a slice from
	// an elevated one, and nothing at all from an urgent one — declining
	// locally instead of spending a round-trip the device would refuse.
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
	kick    func()

	// Kick coalescing: state changes that would each kick the pump arm
	// one kick event per instant instead, so a burst of notifications
	// wakes the pump once (deliverKick is that event, bound once).
	kickArmed   bool
	deliverKick func()

	// Host→device GC coordination (Config.GCCoordinate): the device
	// control handle, the expiry of the currently leased deferral, and
	// the earliest instant a refused lease may be retried.
	gcctl        GCControl
	gcDeferUntil sim.Time
	gcRetryAt    sim.Time
	gcLeaseSlice sim.Time // length of the currently granted lease

	// Health-event sink for lease decisions (obs.Monitor when the
	// fabric monitors; nil otherwise) and the device label it reports
	// under.
	evsink  obs.EventSink
	evlabel string

	// GCDeferrals counts throughput requests held back at least once by
	// the GC-aware policy.
	GCDeferrals int64
	// coord is the host side of the GC-coordination ledger: leases
	// requested (fresh or renewal), explicit resumes, and lease
	// decisions the adaptive policy declined without asking. Refusals
	// are the device's to count (its side's Refused).
	coord metrics.GCCoord

	// waitByClass accumulates total queue wait (enqueue to dispatch)
	// per request class: a dispatch's wait is recorded here and in its
	// span's sched stage, nowhere else.
	waitByClass [2]sim.Time
}

// GCControl is what the scheduler needs from a device to shape its
// garbage collection — the host→device half of the paper's peer
// interface. ssd.Device implements it; blockdev.Stack.AttachScheduler
// wires it up on every stack mode.
type GCControl interface {
	// DeferGC asks the device to park background GC until the deadline,
	// reporting whether the request was honored (a device at its floor
	// refuses). Honored deferrals remain bounded by the device's own
	// free-pool floor.
	DeferGC(deadline sim.Time) bool
	// ResumeGC releases an active deferral early.
	ResumeGC()
	// GCUrgency reports how much deferral headroom remains (ssd.Device
	// forwards ftl.PageFTL's urgency), which the GCLeaseAdaptive policy
	// sizes its leases by.
	GCUrgency() ftl.GCUrgency
}

// New builds a scheduler on eng.
func New(eng *sim.Engine, cfg Config) *Scheduler {
	s := &Scheduler{eng: eng, cfg: cfg, coord: metrics.NewGCCoord()}
	s.deliverKick = func() {
		s.kickArmed = false
		s.kick()
	}
	return s
}

// SetGCControl hands the scheduler the device's GC control surface.
// With Config.GCCoordinate unset the handle is kept but unused, so
// wiring it unconditionally (as blockdev.Stack.AttachScheduler does) is
// free.
func (s *Scheduler) SetGCControl(ctl GCControl) { s.gcctl = ctl }

// SetEventSink wires a health-event sink for lease grant/decline
// moments, labeled with the device this scheduler fronts. A nil sink
// detaches.
func (s *Scheduler) SetEventSink(sink obs.EventSink, label string) {
	s.evsink, s.evlabel = sink, label
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
		return // the device refused (or we declined) recently; don't spam it
	}
	// Freshness is judged against the length of the lease actually
	// granted (an elevated-urgency half-slice renews at its own
	// half-life), and gates everything below: urgency is polled only
	// when a lease decision is due, so a momentarily urgent device
	// under a fresh lease neither inflates the declined ledger nor
	// backs off a renewal that was not yet wanted.
	fresh := s.gcLeaseSlice
	if fresh <= 0 {
		fresh = gcDeferSlice
	}
	if s.gcDeferUntil-now > fresh/2 {
		return // current lease still fresh
	}
	slice := gcDeferSlice
	if s.cfg.GCLeaseAdaptive {
		switch s.gcctl.GCUrgency() {
		case ftl.GCUrgent:
			// No headroom: the device would refuse anyway. Declining
			// locally skips the doomed round-trip and backs off the
			// same way a refusal would.
			s.coord.HostDeclined++
			s.gcRetryAt = now + gcDeferSlice/2
			if s.evsink != nil {
				s.evsink.Emit(obs.HealthEvent{
					Kind: obs.EventLeaseDecline, At: now, Name: s.evlabel,
					Value:  float64(s.latencyBacklog),
					Detail: "lease declined locally: device urgent",
				})
			}
			return
		case ftl.GCElevated:
			// GC already wants to run: every deferred instant spends
			// real free-pool headroom, so lease in half slices and
			// re-poll sooner.
			slice /= 2
		}
	}
	until := now + slice
	s.coord.HostRequests++
	if s.gcctl.DeferGC(until) {
		s.gcDeferUntil = until
		s.gcLeaseSlice = slice
		if s.evsink != nil {
			s.evsink.Emit(obs.HealthEvent{
				Kind: obs.EventLeaseGrant, At: now, Name: s.evlabel,
				Value:  slice.Micros(),
				Detail: "GC deferral leased for " + slice.String(),
			})
		}
	} else {
		s.gcRetryAt = now + gcDeferSlice/2
		if s.evsink != nil {
			s.evsink.Emit(obs.HealthEvent{
				Kind: obs.EventLeaseDecline, At: now, Name: s.evlabel,
				Value:  float64(s.latencyBacklog),
				Detail: "lease refused by device",
			})
		}
	}
}

// GCCoord returns the host side of the coordination ledger (merge it
// with the device side via metrics.GCCoord.Add, as serve.Fabric does).
func (s *Scheduler) GCCoord() metrics.GCCoord { return s.coord }

// maybeResumeGC releases the deferral lease once no latency-sensitive
// request is waiting — the burst drained, the device may collect. The
// device call is deferred to the event loop rather than made inline:
// resuming kicks GC, whose activity notification re-enters this
// scheduler's kick/pump while the triggering pop is still unwinding,
// and the nested pump would dispatch throughput work ahead of the very
// latency request that drained the burst.
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

// SetKick registers the callback invoked when previously ineligible
// work becomes dispatchable (a GC state change, a GC deferral aging out).
// The downstream stack points this at its queue pump.
func (s *Scheduler) SetKick(fn func()) { s.kick = fn }

// requestKick arms at most one kick event at the current instant, so a
// burst of notifications (a per-chip GC edge each, for example) — or
// notifications arriving mid-drain — wake the pump once, after the
// burst, instead of re-entering it per notification.
func (s *Scheduler) requestKick() {
	if s.kick == nil || s.kickArmed {
		return
	}
	s.kickArmed = true
	s.eng.Schedule(s.eng.Now(), s.deliverKick)
}

// SetGCActiveChips is the device-to-host notification sink: the device
// reports how many of its chips are currently garbage-collecting. Wire
// it to ssd.Device.SetGCNotifier.
func (s *Scheduler) SetGCActiveChips(chips int) {
	was := s.gcChips
	s.gcChips = chips
	if was != chips {
		// Both edges matter: GC starting may demote throughput work that
		// is already queued; GC ending frees it.
		s.requestKick()
	}
}

// GCActiveChips reports the device GC load last notified.
func (s *Scheduler) GCActiveChips() int { return s.gcChips }

// Item is one request of an enqueue (EnqueueBatch).
type Item struct {
	// Cost is the request's DRR billing (minimum 1).
	Cost int
	// Span is the request's trace span: the scheduler stamps its
	// queue-wait stage at dispatch, plus GC-deferral overlay time. A nil
	// span traces nothing.
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
	if sp := head.span; sp != nil {
		sp.Stamp(obs.StageSched, now-head.at)
		if head.deferred {
			sp.NoteGCDeferred(now - head.deferredAt)
		}
	}
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
// any dispatch. A short return means nothing further is eligible at
// this instant, in which case one wake-up timer is armed if eligibility
// will arrive on its own.
func (s *Scheduler) NextBatch(max int, buf []func()) []func() {
	if s.backlog == 0 {
		return buf
	}
	now := s.eng.Now()
	for n := 0; n < max; n++ {
		d, ok := s.selectOne(now)
		if !ok {
			s.armWakeup(now)
			break
		}
		buf = append(buf, d)
	}
	return buf
}

// selectOne runs one DRR selection at instant now, without arming a
// wake-up on failure (NextBatch arms it once per drain).
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

// armWakeup schedules a kick at the earliest future instant at which a
// currently ineligible head request becomes dispatchable: a GC deferral
// aging past gcDeferLimit. Stale timers are harmless — the kick just finds
// nothing eligible and re-arms.
func (s *Scheduler) armWakeup(now sim.Time) {
	if s.kick == nil || s.gcChips == 0 || s.latencyBacklog == 0 {
		return
	}
	wake := sim.MaxTime
	for _, t := range s.tenants {
		if t.q.Len() == 0 || t.class != Throughput {
			continue
		}
		if head := t.q.At(0); head.deferred && head.deferredAt+gcDeferLimit < wake {
			wake = head.deferredAt + gcDeferLimit
		}
	}
	if wake == sim.MaxTime {
		return
	}
	if wake <= now {
		wake = now + 1
	}
	s.eng.Schedule(wake, s.kick)
}
