// The submission path. SubmitBatch charges one core the full
// per-request setup cost once and the marginal cost (a quarter) for every
// further request, takes the SingleQueue lock once per batch, and hands
// consecutive same-tenant runs to sched.EnqueueBatch so DRR admission
// settles in one bookkeeping pass. Completions post into a completion
// ring drained once per instant: spans are stamped and estimator
// samples recorded in one pass, the device queue is refilled with a
// single pump, and completion CPU is billed first-op-full,
// rest-marginal per core — the blk-mq/scsi-mq amortization the paper's
// §2.2 anticipates, applied to all three stacks. A single request is a
// batch of one and pays exactly the full per-request costs. The flush
// merge (joinFlush) happens on the way to the device, before
// admission: blk-mq's pending-flush merge.
package blockdev

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Submit runs req through the stack from core cpu: a batch of one,
// carried in its submission record, so it allocates no slice.
func (s *Stack) Submit(cpu int, req Request) {
	b := s.newSubmission(cpu)
	b.one[0] = req
	s.charge(b, b.one[:])
}

// SubmitBatch runs reqs through the stack from core cpu as one batch.
// The first request pays the mode's full submit cost and each further
// request the marginal cost; SingleQueue serializes on the queue lock once
// for the whole batch. Completion costs are charged back to the same
// core (completion steering, as the upgraded block layer does). reqs must
// not change until the batch reaches the device queue.
func (s *Stack) SubmitBatch(cpu int, reqs []Request) {
	if len(reqs) == 0 {
		return
	}
	s.charge(s.newSubmission(cpu), reqs)
}

// submission is one batch between its submit call and the device queue:
// the submitting core's work, then (SingleQueue) the queue lock. Records
// are pooled on the stack with their callbacks bound once; one holds a
// batch of one in place.
type submission struct {
	s      *Stack
	cpu    int
	reqs   []Request
	one    [1]Request
	onCPU  func(start, end sim.Time)
	onLock func(start, end sim.Time)
}

// newSubmission takes a submission record off the idle list, or builds
// one.
func (s *Stack) newSubmission(cpu int) *submission {
	b := s.subs.Get()
	if b == nil {
		b = &submission{s: s}
		b.onCPU, b.onLock = b.charged, b.route
	}
	b.cpu = cpu
	return b
}

// charge bills the batch's submit cost on its core.
func (s *Stack) charge(b *submission, reqs []Request) {
	b.reqs = reqs
	s.Submitted += int64(len(reqs))
	cost := s.submit + sim.Time(len(reqs)-1)*s.marginal
	s.cpus[b.cpu%len(s.cpus)].Use(cost, s.submitLabel, b.onCPU)
}

func (b *submission) charged(start, end sim.Time) {
	if b.s.lock == nil {
		b.route(start, end)
		return
	}
	b.s.lock.Use(lockHold, "queue-lock", b.onLock)
}

// route hands the batch toward the device. The record goes back on the
// list only after toDevice, which reads the requests in place; it
// carries no completion of its own (each request's is its inflight's).
func (b *submission) route(_, _ sim.Time) {
	s := b.s
	s.toDevice(b.cpu, b.reqs)
	*b = submission{s: s, onCPU: b.onCPU, onLock: b.onLock}
	s.subs.Put(b)
}

// toDevice routes a submitted batch toward the device. With a scheduler
// attached, each run of consecutive same-tenant requests becomes one
// EnqueueBatch call (billed per request; untagged requests ride the
// fallback tenant), and one pump drains what was queued into free
// queue slots. Without one the requests go straight to the FIFO depth
// gate.
func (s *Stack) toDevice(cpu int, reqs []Request) {
	if s.sched == nil {
		for i := range reqs {
			if !s.joinFlush(&reqs[i]) {
				s.dispatch(s.newInflight(cpu, reqs[i]))
			}
		}
		return
	}
	for start := 0; start < len(reqs); {
		t := s.tenantOf(&reqs[start])
		items := s.items[:0]
		end := start
		for ; end < len(reqs) && s.tenantOf(&reqs[end]) == t; end++ {
			if s.joinFlush(&reqs[end]) {
				continue
			}
			r := s.newInflight(cpu, reqs[end])
			items = append(items, sched.Item{Cost: s.costOf(r.req.Op), Span: r.req.Span, Dispatch: r.onDispatch})
		}
		s.sched.EnqueueBatch(t, items)
		clear(items)
		s.items = items
		start = end
	}
	s.pump()
}

// joinFlush merges a flush into the one already queued — submitted and
// not yet issued to the device — if there is one: one device command,
// and every submitter completes with it. It is safe because the queued
// flush is issued after req was submitted, so it covers every write
// acknowledged before either. Once a flush is issued, the next one
// queues anew (and is what later flushes join). It reports whether req
// joined.
func (s *Stack) joinFlush(req *Request) bool {
	if req.Op != OpFlush || s.flushq == nil {
		return false
	}
	s.flushq.joined = append(s.flushq.joined, *req)
	return true
}

// tenantOf names the scheduler tenant req is charged to.
func (s *Stack) tenantOf(req *Request) *sched.Tenant {
	if req.Tenant == nil {
		return s.fallback
	}
	return req.Tenant
}

// pump pulls scheduled requests into free device-queue slots: up to
// the free depth in one scheduler pass — one lock acquisition's worth
// of DRR bookkeeping for the whole drain. It is the scheduler's kick
// target, so it also runs when rate tokens refill or GC deferrals
// expire.
func (s *Stack) pump() {
	if s.sched == nil {
		return
	}
	free := s.cfg.QueueDepth - s.outstanding
	if free <= 0 {
		return
	}
	// No dispatch re-enters pump while the buffer is in use:
	// completions and scheduler kicks both reach it through events.
	s.pumped = s.sched.NextBatch(free, s.pumped[:0])
	for _, d := range s.pumped {
		d()
	}
	clear(s.pumped)
}

// inflight is one request below the submit path: queued at the
// scheduler or the depth gate, issued to the device, parked in the
// completion ring until the per-instant drain settles it, then charged
// its completion CPU. Inflights are recycled through Stack.idle once
// Done has been handed the outcome, with the callbacks a request's life
// needs bound once per object, so steady-state I/O allocates none of
// this.
type inflight struct {
	s      *Stack
	req    Request
	cpu    int
	data   []byte
	err    error
	gated  sim.Time // when it joined waitq behind a full device queue
	issued sim.Time
	pre    ftl.GCTouch
	// joined holds the flushes merged into this one (Stack.joinFlush).
	joined []Request

	onDispatch func()
	onRead     func([]byte, error)
	onWrite    func(error)
	onFlush    func()
	onCPU      func(start, end sim.Time)
}

// newInflight takes an inflight off the idle list, or builds one.
func (s *Stack) newInflight(cpu int, req Request) *inflight {
	r := s.idle.Get()
	if r == nil {
		r = &inflight{s: s}
		r.onDispatch = func() { s.dispatch(r) }
		r.onRead = r.post
		r.onWrite = func(err error) { r.post(nil, err) }
		r.onFlush = func() { r.post(nil, nil) }
		r.onCPU = r.finish
	}
	r.req, r.cpu = req, cpu
	if req.Op == OpFlush {
		s.flushq = r
	}
	return r
}

// dispatch issues one request when queue depth allows.
func (s *Stack) dispatch(r *inflight) {
	if s.outstanding >= s.cfg.QueueDepth {
		r.gated = s.eng.Now()
		s.waitq = append(s.waitq, r)
		return
	}
	if r == s.flushq {
		s.flushq = nil
	}
	s.outstanding++
	r.issued = s.eng.Now()
	req := &r.req
	if req.Span != nil {
		req.Span.NoteIO()
		if s.prober != nil && req.Op != OpFlush {
			r.pre = s.prober.GCTouch(req.LPN)
		}
	}
	switch req.Op {
	case OpRead:
		s.dev.Read(req.LPN, r.onRead)
	case OpWrite:
		s.dev.Write(req.LPN, req.Data, r.onWrite)
	case OpFlush:
		s.dev.Flush(r.onFlush)
	default:
		r.post(nil, fmt.Errorf("blockdev: unknown op %d", req.Op))
	}
}

// post parks the finished request in the completion ring and arms the
// per-instant drain. The device-queue slot frees immediately (the
// device is done with it); everything else — span stamps, GC probes,
// estimator samples, queue refill, completion CPU — waits for the drain
// so it settles once per batch.
func (r *inflight) post(data []byte, err error) {
	s := r.s
	r.data, r.err = data, err
	s.outstanding--
	s.compq = append(s.compq, r)
	if !s.compArmed {
		s.compArmed = true
		s.eng.Schedule(s.eng.Now(), s.drain)
	}
}

// drainCompletions settles every completion that landed this instant:
// one pass of span stamping and calibration samples, one waitq refill
// plus one pump to repopulate the device queue, then completion CPU
// charged per core at full cost for its first completion and the
// marginal cost for the rest (IRQ coalescing: one interrupt's worth of
// path setup covers the whole batch).
func (s *Stack) drainCompletions() {
	s.compArmed = false
	batch := s.compq
	s.compq = s.compSpare[:0]
	now := s.eng.Now()
	for _, r := range batch {
		if r.req.Span != nil {
			r.req.Span.Stamp(obs.StageDevice, now-r.issued)
			if s.prober != nil && r.req.Op != OpFlush {
				// Bracketing probes: the op interfered with GC if its
				// chip was collecting on either side of the I/O, and a
				// floor-hit delta means a forced collection fired in
				// its shadow.
				post := s.prober.GCTouch(r.req.LPN)
				chip := post.Chip
				if chip < 0 {
					chip = r.pre.Chip
				}
				r.req.Span.NoteGC(chip, r.pre.Collecting || post.Collecting,
					r.pre.Deferred || post.Deferred, post.FloorHits-r.pre.FloorHits)
			}
		}
		if r.err == nil {
			// The span from device issue to completion is the service
			// time the host can actually observe through the interface —
			// queueing inside the device included, by design: that *is*
			// what an op of this class costs the host right now.
			s.observe(r.req.Op, r.issued)
		}
	}
	for len(s.waitq) > 0 && s.outstanding < s.cfg.QueueDepth {
		next := s.waitq[0]
		s.waitq = s.waitq[0:copy(s.waitq, s.waitq[1:])]
		// Depth-gate wait is queueing before the device, same as
		// scheduler-queue time: bill it to the sched stage.
		next.req.Span.Stamp(obs.StageSched, now-next.gated)
		s.dispatch(next)
	}
	s.pump()
	for _, r := range batch {
		core := r.cpu % len(s.cpus)
		cost := s.marginal
		if !s.seenCore[core] {
			s.seenCore[core] = true
			cost = s.complete
		}
		s.cpus[core].Use(cost, "complete", r.onCPU)
	}
	clear(s.seenCore)
	clear(batch)
	s.compSpare = batch
}

// finish hands the outcome over once the completion CPU work is done.
func (r *inflight) finish(_, _ sim.Time) {
	r.s.Completed += 1 + int64(len(r.joined))
	r.complete()
}

// complete recycles r and hands its outcome to its submitter and, for a
// merged flush, to every joiner. A lone request is recycled first: Done
// may submit again. A merged flush is recycled last, after its joiners'
// callbacks, which may submit (and allocate a fresh inflight) meanwhile.
func (r *inflight) complete() {
	s, req, data, err := r.s, r.req, r.data, r.err
	if len(r.joined) == 0 {
		s.recycle(r)
		req.deliver(data, err)
		return
	}
	req.deliver(data, err)
	for i := range r.joined {
		joiner := r.joined[i]
		r.joined[i] = Request{}
		joiner.deliver(nil, err)
	}
	s.recycle(r)
}

// recycle puts r, which nothing refers to any more, on the idle list.
func (s *Stack) recycle(r *inflight) {
	r.req, r.data, r.err, r.pre, r.joined = Request{}, nil, nil, ftl.GCTouch{}, r.joined[:0]
	s.idle.Put(r)
}

// SubmitBatchSync submits reqs as one batch and blocks the calling
// process until every request completes, returning the first error.
// Per-request Done callbacks still fire (before the error is folded
// in); the process waits on one pooled record that counts the
// completions, so the call allocates nothing of its own. Only ONE
// spanless request inherits the process's bound span:
// the batch's requests run concurrently inside the device, so stamping
// each overlapping round trip onto the shared span would sum past the
// span's own life and trip the E20 overrun check. One carrier request
// stamps one in-flight interval; the rest of the batch's wall time
// lands in the span's serve remainder.
func (s *Stack) SubmitBatchSync(p *sim.Proc, cpu int, reqs []Request) error {
	if len(reqs) == 0 {
		return nil
	}
	w := s.newWait(len(reqs))
	inherited := false
	for i := range reqs {
		req := &reqs[i]
		if req.Span == nil && !inherited {
			req.Span = s.tracer.At(p)
			inherited = req.Span != nil
		}
		req.wait = w
	}
	s.SubmitBatch(cpu, reqs)
	_, err := s.await(p, w)
	for i := range reqs {
		reqs[i].wait = nil // w is recycled: a resubmitted request must not find it
	}
	return err
}

// CPUBusy sums the busy time of every submitting core plus the shared
// queue lock (SingleQueue) — the numerator of E23's per-op CPU
// accounting, measured where the host actually burns cycles.
func (s *Stack) CPUBusy() sim.Time {
	var total sim.Time
	for _, core := range s.cpus {
		total += core.Busy()
	}
	if s.lock != nil {
		total += s.lock.Busy()
	}
	return total
}
