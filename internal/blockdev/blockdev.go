// Package blockdev models the operating-system block layer between
// applications and a device: per-request CPU work on the submitting
// core, the single shared queue lock of the classic Linux block layer,
// the per-core software queues of its multi-queue successor, and the
// direct user-space submission path (FusionIO's ioMemory SDK) that
// bypasses the block layer entirely — the three stacks experiment E12
// compares.
//
// The paper's §2.2 notes the block layer evolution ("CPU overhead has
// been reduced ... lock contention has been reduced ... management of
// multiple IO queues ... under implementation"); this package makes
// those costs explicit and measurable.
//
// The interface's one durability tool is the flush, and this layer
// keeps it to the fewest device commands it can: a flush submitted
// while another is still queued (not yet issued to the device) joins
// it, and both complete with that one command. That is safe because the
// queued flush is issued after every joiner's writes were acknowledged;
// a flush submitted once it is issued queues anew. A busy device also
// runs one flush at a time: a flush that finds another running stays in
// the stack, where later flushes join it, until that one completes —
// unless a device-queue slot is free and the scheduler holds nothing
// (Stack.FlushGoesNow), when it goes on at once, so a lightly loaded
// device sees its flushes exactly when it would without the rule. A
// block log asks the same question before it overlaps a sync with the
// one in flight (core.BlockLog.SyncNow), so two flushes of one log run
// together only when the device has room for both. A flush holds its
// slot while the device drains its buffer, about one program time, and
// kv_sat's limiter is that queue (docs/ARCHITECTURE.md): held flushes
// hand those slots to reads.
package blockdev

import (
	"fmt"
	"math"

	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Mode selects the submission path.
type Mode int

// Submission paths.
const (
	// SingleQueue is the classic block layer: one request queue, one
	// lock shared by every submitting core.
	SingleQueue Mode = iota
	// MultiQueue is the blk-mq design: a software queue per core, no
	// shared lock on the submission path.
	MultiQueue
	// Direct bypasses the block layer: minimal per-request CPU cost, no
	// shared state (the "communication abstraction" needs this path).
	Direct
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case SingleQueue:
		return "SingleQueue"
	case MultiQueue:
		return "MultiQueue"
	case Direct:
		return "Direct"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes the stack.
type Config struct {
	Mode Mode
	// CPUs is the number of submitting cores.
	CPUs int
	// QueueDepth bounds requests outstanding at the device; excess
	// requests wait in the scheduler queue.
	QueueDepth int
	// WriteCost is the per-write charge a tenant scheduler bills in DRR
	// units, against readCost for a read (zero means 1). Deficit round
	// robin shares *cost*, not op count, so setting WriteCost near the
	// device's program/read service-time ratio keeps cheap reads from
	// being crowded out by expensive writes.
	WriteCost int
	// CalibrateWindow, when positive, replaces the static
	// readCost/WriteCost billing with online cost calibration over
	// estimator sub-windows of this length (the full observation window
	// is 4 of them): the stack measures every request's device service
	// time (dispatch to completion, the span the block interface
	// reports and nothing more) into a windowed estimator and re-derives
	// the read/write billing from the observed EWMA ratio. The static
	// costs remain the seed — billing until both op classes have
	// samples — so a cold stack behaves exactly like an uncalibrated
	// one. This is the honest version of the WriteCost guess above: a
	// device whose programs slow with age is billed at what its writes
	// actually cost today, not at what they cost when configured. Zero
	// leaves calibration off.
	CalibrateWindow sim.Time
}

// The per-request costs of a 2012 Linux stack on a fast SSD.
const (
	// submitCost is the CPU work to build and route one request (bio
	// allocation, scheduler hooks); Direct mode pays directCost instead.
	submitCost = 4 * sim.Microsecond
	// completeCost is the CPU work on the completion path (IRQ + softirq
	// + callback), charged to the submitting core.
	completeCost = 4 * sim.Microsecond
	// lockHold is the queue-lock critical section per submission
	// (SingleQueue only) — the serialization point that caps IOPS.
	lockHold = 1200 * sim.Nanosecond
	// directCost is the per-request CPU work of the bypass path, paid
	// once to submit and once to complete.
	directCost = 800 * sim.Nanosecond
	// batchDiscount divides a mode's per-request cost into the
	// incremental cost of each request after the first in one
	// SubmitBatch or one completion drain: the marginal work of
	// appending to a ring already resident in cache, vs the full path
	// setup the first request pays.
	batchDiscount = 4
	// readCost is the DRR charge per read (see Config.WriteCost).
	readCost = 1
	// maxCostRatio clamps the calibrated expensive:cheap billing ratio,
	// bounding how hard one op class can be billed relative to the other
	// no matter what the estimator reports.
	maxCostRatio = 64
)

// Service-time estimator class names (also the keys experiments read).
const (
	SvcRead  = "read"
	SvcWrite = "write"
)

// costGrain is the billing unit of calibrated costs: the cheaper op
// class is billed costGrain units so ratios below 2 are still
// representable in integer DRR costs (at grain 1 everything between
// 1.0x and 1.5x would round to parity).
const costGrain = 8

// calSeedSamples is how many lifetime samples each op class needs
// before calibrated billing replaces the static seed costs.
const calSeedSamples = 8

// DefaultConfig is a four-core stack of the given mode at queue depth
// 32.
func DefaultConfig(mode Mode) Config {
	return Config{Mode: mode, CPUs: 4, QueueDepth: 32}
}

// Stack is one configured I/O path to one device.
type Stack struct {
	eng *sim.Engine
	dev ssd.Dev
	cfg Config

	cpus []*sim.Server
	lock *sim.Server // SingleQueue only

	// The mode's per-request CPU costs, resolved once: a batch's first
	// request pays submit (under submitLabel) and complete in full, each
	// further request marginal.
	submit, complete, marginal sim.Time
	submitLabel                string

	// sched is the one gate between submission and the device queue:
	// it arbitrates tenant-tagged requests onto free slots, and untagged
	// requests ride the fallback tenant so they can neither starve nor
	// be starved. New attaches a FIFO of one fallback tenant;
	// AttachScheduler replaces it.
	sched    *sched.Scheduler
	fallback *sched.Tenant

	// Online cost calibration (Config.CalibrateWindow): the observed
	// service-time estimator and the billing it currently implies.
	svc               *metrics.Estimator
	calRead, calWrite int

	// peer is the device's page FTL (ssd.Device.Peer), nil when it has
	// none: AttachScheduler wires it to the scheduler, and traced I/O
	// asks it for per-LPN GC context.
	peer *ftl.PageFTL
	// sealer is the device's MarkSealed (ssd.Device), nil on a device
	// without one: dispatch marks a sealed write's payload with it.
	sealer interface{ MarkSealed(data []byte) }

	// Tracing (SetTracer): spans are resolved from the submitting
	// process and stamped with device service time.
	tracer *obs.Tracer

	outstanding int
	// flushing counts the flushes issued to the device whose completion
	// has not yet been handed over (inflight.finish).
	flushing int
	// flushq is the flush submitted and not yet issued to the device:
	// the one a new flush joins instead of queueing a second device
	// command. It is queued at the scheduler, or, when it found another
	// flush running, held in the stack (flushHeld) until pump lets it go.
	flushq    *inflight
	flushHeld bool

	// Completion ring: completions land in compq and are settled in one
	// drain pass per instant (drain, bound once, is that event) instead
	// of re-entering the pump and span machinery once per op. compSpare
	// is the buffer the last drain emptied, swapped back in by the next;
	// seenCore marks which cores a drain already charged full cost.
	compq, compSpare []*inflight
	compArmed        bool
	drain            func()
	seenCore         []bool
	idle             sim.Pool[inflight] // finished, ready for reuse
	subs             sim.Pool[submission]
	waits            sim.Pool[syncWait]

	// Scratch reused across calls: one submitted tenant run's scheduler
	// items, and the dispatches of one pump.
	items  []sched.Item
	pumped []func()

	// Submitted and Completed count requests through this stack.
	Submitted int64
	Completed int64
}

// New builds a stack over dev, gated by a scheduler of its own: one
// latency-class "untagged" tenant, so plain FIFO until AttachScheduler
// replaces it.
func New(eng *sim.Engine, dev ssd.Dev, cfg Config) (*Stack, error) {
	if cfg.CPUs <= 0 {
		return nil, fmt.Errorf("blockdev: CPUs %d must be positive", cfg.CPUs)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	s := &Stack{eng: eng, dev: dev, cfg: cfg, seenCore: make([]bool, cfg.CPUs),
		submit: submitCost, complete: completeCost, submitLabel: "mq-submit"}
	switch cfg.Mode {
	case Direct:
		s.submit, s.complete, s.submitLabel = directCost, directCost, "direct-submit"
	case SingleQueue:
		s.submitLabel = "sq-submit"
	}
	s.marginal = s.submit / batchDiscount
	if d, ok := dev.(interface{ Peer() *ftl.PageFTL }); ok {
		s.peer = d.Peer()
	}
	s.sealer, _ = dev.(interface{ MarkSealed(data []byte) })
	s.drain = s.drainCompletions
	if cfg.CalibrateWindow > 0 {
		s.svc = metrics.NewEstimator(int64(cfg.CalibrateWindow), 4, 0.1)
	}
	for i := 0; i < cfg.CPUs; i++ {
		s.cpus = append(s.cpus, sim.NewServer(eng, fmt.Sprintf("cpu%d", i)))
	}
	if cfg.Mode == SingleQueue {
		s.lock = sim.NewServer(eng, "queue-lock")
	}
	s.AttachScheduler(sched.New(eng, sched.Config{}))
	return s, nil
}

// Device returns the device under this stack.
func (s *Stack) Device() ssd.Dev { return s.dev }

// CPU exposes core i's server (for utilization probes).
func (s *Stack) CPU(i int) *sim.Server { return s.cpus[i%len(s.cpus)] }

// CPUs reports the number of submission/completion cores.
func (s *Stack) CPUs() int { return len(s.cpus) }

// Lock exposes the shared submission lock server (SingleQueue only;
// nil on the other modes).
func (s *Stack) Lock() *sim.Server { return s.lock }

// AttachScheduler replaces the stack's scheduler, the gate between the
// submission path and the device queue; call it right after New, before
// anything is submitted. Requests carrying a Tenant tag are arbitrated
// by it (weighted fair queueing, GC-aware deferral); untagged requests
// are charged to a built-in "untagged" tenant, so legacy traffic shares
// the queue under the same arbitration instead of bypassing it (a
// bypass would hand untagged streams strict priority and starve every
// tenant behind a full device queue). The fallback is latency-class so
// attaching a scheduler never exposes unaware callers to GC deferral.
// The stack pulls from the scheduler (pump) and the scheduler never
// calls it back: a deferred request goes at a later pull, and no slot
// idles meanwhile. This is the one place the device's peer half
// (ssd.Device.Peer) is wired, on every stack mode, since it rides the
// control plane, not the data path: the device's GC notifications reach
// the scheduler, and its GC leases let sched.Config.GCCoordinate shape
// device GC around latency bursts. A device without a page FTL (PCM,
// the hybrid FTL) wires neither, so a scheduler never leases deferrals
// a device can only refuse.
func (s *Stack) AttachScheduler(sc *sched.Scheduler) {
	s.sched = sc
	s.fallback = sc.AddTenant("untagged", sched.LatencySensitive, 1)
	if s.peer != nil {
		sc.SetGCControl(s.peer)
		s.peer.SetGCNotifier(sc.SetGCActiveChips)
	}
}

// SetTracer enables span tracing on this stack: requests issued
// through SubmitSync and SubmitBatchSync inherit the span bound to the
// calling process (obs.Tracer.Bind), the dispatch→complete device
// service is stamped on it, and — when the device has a peer half to
// ask for per-LPN GC context — each I/O is annotated with the GC
// interference it saw. A nil tracer disables tracing.
func (s *Stack) SetTracer(tr *obs.Tracer) { s.tracer = tr }

// Op identifies the request type.
type Op int

// Request operations.
const (
	OpRead Op = iota
	OpWrite
	OpFlush
)

// Request is one block-layer request.
type Request struct {
	Op   Op
	LPN  int64
	Data []byte
	// Sealed marks a write whose Data its writer does not write again
	// while a reader can reach the page: the device may keep Data itself
	// instead of a copy (ssd.Device.MarkSealed).
	// Only a B-tree page write sets it (core.PageStore.WriteSealedPage).
	Sealed bool
	// Tenant routes the request through that tenant's queue at the
	// stack's scheduler; nil requests are charged to the stack's
	// built-in "untagged" tenant.
	Tenant *sched.Tenant
	// Done receives the read payload (for OpRead) and the outcome. The
	// payload is shared with the device: it must not be modified.
	Done func(data []byte, err error)
	// Span, when tracing, is the request's trace span: the stack
	// stamps scheduler-queue wait and device service time on it. The
	// blocking calls fill it from the calling process's binding.
	Span *obs.Span

	// wait is the blocking call parked on this request, told after Done.
	wait *syncWait
}

// deliver hands a finished request's outcome to its submitter: Done,
// then the blocking call waiting on it.
func (req *Request) deliver(data []byte, err error) {
	if req.Done != nil {
		req.Done(data, err)
	}
	if req.wait != nil {
		req.wait.wake(data, err)
	}
}

// costOf maps an op to its scheduler charge: the calibrated billing
// once the estimator is seeded, the static config costs until then.
func (s *Stack) costOf(op Op) int {
	if s.calRead > 0 {
		if op == OpWrite {
			return s.calWrite
		}
		return s.calRead
	}
	if op == OpWrite {
		return s.cfg.WriteCost
	}
	return readCost
}

// observe feeds one completed request's device service time into the
// estimator and re-derives the DRR billing. The cheaper op class is
// billed costGrain units, the dearer one costGrain times the observed
// EWMA ratio (clamped to maxCostRatio), so billing tracks what the
// device is doing now — a device whose programs slow under aging bills
// writes more, automatically, and recovers just as automatically.
func (s *Stack) observe(op Op, start sim.Time) {
	if s.svc == nil || op == OpFlush {
		return
	}
	class := SvcRead
	if op == OpWrite {
		class = SvcWrite
	}
	now := s.eng.Now()
	s.svc.Record(class, int64(now), int64(now-start))
	r, w := s.svc.Class(SvcRead), s.svc.Class(SvcWrite)
	if r.Count() < calSeedSamples || w.Count() < calSeedSamples {
		return // still on the seed billing
	}
	// Roll both windows to now first: a class that went quiet must age
	// out of its own window rather than freeze a stale mean into the
	// ratio. Then bill from the rolling window when it holds enough of
	// both classes — it forgets the device's former self completely,
	// where the EWMA (the fallback for thin windows) carries decayed
	// memory of it.
	r.Observe(int64(now))
	w.Observe(int64(now))
	rm, wm := r.EWMA(), w.EWMA()
	if r.WindowCount() >= calSeedSamples && w.WindowCount() >= calSeedSamples {
		rm, wm = r.Mean(), w.Mean()
	}
	ratio := wm / rm
	if limit := float64(maxCostRatio); ratio > limit {
		ratio = limit
	} else if ratio < 1/limit {
		ratio = 1 / limit
	}
	if ratio >= 1 {
		s.calRead = costGrain
		s.calWrite = int(math.Round(costGrain * ratio))
	} else {
		s.calRead = int(math.Round(costGrain / ratio))
		s.calWrite = costGrain
	}
}

// CalibratedCosts reports the billing currently charged per read and
// write in DRR units. Before the estimator seeds (or with calibration
// off) it reports the static config costs, floored at 1 the way
// sched.Enqueue bills them.
func (s *Stack) CalibratedCosts() (read, write int) {
	read, write = readCost, s.cfg.WriteCost
	if s.calRead > 0 {
		read, write = s.calRead, s.calWrite
	}
	if write < 1 {
		write = 1
	}
	return read, write
}

// ServiceEstimator exposes the observed device service-time estimator
// (classes SvcRead/SvcWrite), or nil with calibration off.
func (s *Stack) ServiceEstimator() *metrics.Estimator { return s.svc }

// SubmitSync submits req from core cpu and blocks the calling process
// until it completes, returning the payload (for OpRead) and the
// outcome. A request without a span inherits the one bound to the
// process; req.Done, if set, still fires first.
func (s *Stack) SubmitSync(p *sim.Proc, cpu int, req Request) ([]byte, error) {
	if req.Span == nil {
		req.Span = s.tracer.At(p)
	}
	req.wait = s.newWait(1)
	s.Submit(cpu, req)
	return s.await(p, req.wait)
}

// syncWait is a process blocked in SubmitSync or SubmitBatchSync until
// the left requests carrying it have completed. The last completion
// wakes the process at once, inside that completion; the process
// recycles the record (Stack.waits).
type syncWait struct {
	c    *sim.Cond
	left int
	data []byte // the last completion's payload
	err  error  // the first completion error
}

// newWait takes a wait record for n requests off the idle list, or
// builds one.
func (s *Stack) newWait(n int) *syncWait {
	w := s.waits.Get()
	if w == nil {
		w = &syncWait{c: sim.NewCond(s.eng)}
	}
	w.left = n
	return w
}

// wake records one completion and wakes the process on the last.
func (w *syncWait) wake(data []byte, err error) {
	if w.err == nil {
		w.err = err
	}
	w.data = data
	if w.left--; w.left == 0 {
		w.c.Fire()
	}
}

// await blocks p until w's requests have completed, then recycles w.
func (s *Stack) await(p *sim.Proc, w *syncWait) ([]byte, error) {
	w.c.Await(p)
	data, err := w.data, w.err
	w.data, w.err = nil, nil
	w.c.Reset()
	s.waits.Put(w)
	return data, err
}
