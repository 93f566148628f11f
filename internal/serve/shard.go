package serve

import (
	"errors"

	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// OpKind identifies a client request type.
type OpKind int

// Request kinds.
const (
	// OpGet is a point lookup (a missing key is not an error).
	OpGet OpKind = iota
	// OpPut is a single-key upsert committed through the shard's WAL.
	OpPut
	// OpScan is a bounded in-order scan of the shard's keyspace: up to
	// ScanLimit rows starting at Key.
	OpScan
)

// String names the kind for trace spans and tables.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpScan:
		return "scan"
	}
	return "op"
}

// Op is one client request at the serving boundary.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value []byte
	// ScanLimit bounds OpScan visits (0 = 32).
	ScanLimit int
	// Class selects the deadline the request is held to:
	// sched.LatencySensitive or sched.Throughput.
	Class sched.Class

	// Span is the request's trace span (nil when tracing is off). The
	// frontend opens it; each layer stamps its stage in place. Ops are
	// passed by value, so the pointer rides every copy.
	Span *obs.Span

	arrived sim.Time
	done    func(error)
}

// Shard is one KV store slice of the fabric: a kvstore.System over a
// region of shared hardware, its own scheduler tenant, a bounded
// admission queue, and a pool of serving workers.
type Shard struct {
	fab     *Fabric
	idx     int
	name    string
	logical int // logical shard this physical shard replicates
	dev     int // device index in the fabric
	slot    int // region slot on that device
	retired bool
	down    bool // backing device died (Fabric.KillDevice)
	group   *deviceGroup
	sys     *kvstore.System
	stats   *metrics.ShardCounters

	queue   sim.Queue[*Op] // admitted requests waiting for a worker
	waiters []*sim.Cond
	busy    int // workers mid-drain (Fabric.Crash quiesces on this)
	// ops recycles the records of settled requests (Submit, finish);
	// putPool the put groups of settled drains (handOff).
	ops     sim.Pool[Op]
	putPool sim.Pool[putGroup]

	// wakeArmed coalesces submit-side worker wakeups: any number of
	// Submits in one instant arm at most one wake event (wake, bound
	// once at construction).
	wakeArmed bool
	wake      func()

	// svc observes per-request service times (dequeue to completion,
	// classes "latency"/"throughput" plus svcAll) — what adaptive
	// deadlines and the early-drop predictor consume.
	svc *metrics.Estimator

	// Admission token bucket (requests, not device I/Os).
	bucket tokenBucket
}

// svcAll is the estimator class aggregating every request class: queue
// drain predictions need the mixed-class service rate, not one class's.
const svcAll = "all"

// adaptiveMinSamples is how many windowed samples the estimator needs
// before adaptive deadlines and early drop replace the static policy.
const adaptiveMinSamples = 16

// Name returns the shard's name ("shardN"; "shardN.rR" replicated,
// "shardN.mK" migrated-in).
func (sh *Shard) Name() string { return sh.name }

// Logical returns the logical shard this physical shard replicates.
func (sh *Shard) Logical() int { return sh.logical }

// DeviceIndex returns the fabric device the shard's region lives on.
func (sh *Shard) DeviceIndex() int { return sh.dev }

// Slot returns the shard's region slot on its device.
func (sh *Shard) Slot() int { return sh.slot }

// Retired reports whether the shard has been removed from service.
func (sh *Shard) Retired() bool { return sh.retired }

// System exposes the shard's KV system (tests and instrumentation).
func (sh *Shard) System() *kvstore.System { return sh.sys }

// Systems implements Target: the single backing store of an unreplicated
// target (replica groups return one per replica).
func (sh *Shard) Systems() []*kvstore.System { return []*kvstore.System{sh.sys} }

// QueueLen reports the shard's current admission-queue length.
func (sh *Shard) QueueLen() int { return sh.queue.Len() }

// releaseWorkers wakes every idle worker so each re-reads the state
// that parked it: the shard was stopped, retired or lost its device.
func (sh *Shard) releaseWorkers() {
	ws := sh.waiters
	sh.waiters = nil
	for _, w := range ws {
		w.Fire()
	}
}

// Submit routes one request through admission control. done always
// fires exactly once: with ErrRejected at admission refusal, ErrStopped
// (ErrCrashed) if the fabric stops (crashes) first, or the storage
// engine's outcome once served. Rejection is immediate — the point of
// admission control is that overload answers now instead of queueing
// forever. Requests arriving at a stopped or crashing fabric are not
// part of the admission ledger.
func (sh *Shard) Submit(op Op, done func(error)) {
	err := sh.refusal(op.Class)
	if err != nil && err != ErrRejected && err != errPredictedMiss {
		if done != nil {
			done(err)
		}
		return
	}
	sh.stats.Submitted++
	if err != nil {
		if err == errPredictedMiss {
			sh.stats.EarlyDropped++
		}
		sh.reject(op.Class, done)
		return
	}
	if sh.fab.cfg.Admission.Enabled && sh.bucket.active() {
		sh.bucket.avail-- // refusal topped the bucket up and found a token
	}
	sh.stats.Admitted++
	queued := sh.ops.Get()
	if queued == nil {
		queued = new(Op)
	}
	*queued = op
	queued.arrived = sh.fab.eng.Now()
	queued.Span.MarkArrived(queued.arrived)
	queued.done = done
	sh.queue.Push(queued)
	if sh.queue.Len() > sh.stats.MaxQueue {
		sh.stats.MaxQueue = sh.queue.Len()
	}
	// At most one wake event per instant: a burst of Submits costs one
	// event and one waiter scan instead of one wakeup per op.
	if !sh.wakeArmed && len(sh.waiters) > 0 {
		sh.wakeArmed = true
		sh.fab.eng.Schedule(sh.fab.eng.Now(), sh.wake)
	}
}

// reject refuses a request of class c at admission: the shard's and
// the class's ledgers count it, and done hears ErrRejected.
func (sh *Shard) reject(c sched.Class, done func(error)) {
	sh.stats.Rejected++
	sh.fab.classCounters(c).Rejected++
	if done != nil {
		done(ErrRejected)
	}
}

// wakeWorkers is the armed wake event: enough idle workers are woken to
// drain the backlog at MaxOps per worker.
func (sh *Shard) wakeWorkers() {
	sh.wakeArmed = false
	maxOps := sh.fab.cfg.Batch.MaxOps
	for want := (sh.queue.Len() + maxOps - 1) / maxOps; want > 0 && len(sh.waiters) > 0; want-- {
		n := len(sh.waiters)
		w := sh.waiters[n-1]
		sh.waiters = sh.waiters[:n-1]
		w.Fire()
	}
}

// Admits reports whether a request of class c arriving right now would
// pass admission, without consuming anything: the queue bound, the
// early-drop prediction and the token balance are peeked, not taken.
// Because the simulation is single-threaded, a caller that checks
// Admits on several shards and then Submits to all of them in the same
// event sees consistent answers — which is how replica groups (package
// place) keep a quorum write from being half-applied: either every
// replica admits it, or no replica sees it.
func (sh *Shard) Admits(c sched.Class) bool { return sh.refusal(c) == nil }

// errPredictedMiss is refusal's early drop, answered as ErrRejected.
var errPredictedMiss = errors.New("serve: predicted deadline miss")

// refusal reports why a request of class c arriving now would be
// refused, or nil if admission would take it: ErrDeviceDown, ErrCrashed
// or ErrStopped outside the admission ledger; then, with admission on,
// ErrRejected for a full queue, errPredictedMiss when the queue already
// ahead implies a deadline miss, and ErrRejected for an empty token
// bucket. The early drop is checked before the token balance, so a
// doomed request never burns admission budget an admittable one could
// have used. It takes nothing; the checks refresh the service-time
// windows and the bucket's refill, as each one is reached.
func (sh *Shard) refusal(c sched.Class) error {
	switch {
	case sh.down:
		return ErrDeviceDown
	case sh.fab.crashing:
		return ErrCrashed
	case sh.fab.stopped || sh.retired:
		return ErrStopped
	}
	ac := &sh.fab.cfg.Admission
	switch {
	case !ac.Enabled:
		return nil
	case sh.queue.Len() >= ac.QueueLimit:
		return ErrRejected
	case ac.Adaptive && sh.predictMiss(c):
		return errPredictedMiss
	case sh.bucket.active() && sh.bucket.tokens(sh.fab.eng.Now()) < 1:
		return ErrRejected
	}
	return nil
}

// failBacklog fails every queued request with err and settles the drop
// ledger (Stop without drain, and the moment of a fabric crash).
func (sh *Shard) failBacklog(err error) {
	for sh.queue.Len() > 0 {
		sh.stats.Dropped++
		sh.finish(sh.queue.Pop(), err)
	}
}

// staticDeadlineFor maps a request class to its configured completion
// target — the seed and anchor of the adaptive policy.
func (sh *Shard) staticDeadlineFor(c sched.Class) sim.Time {
	if c == sched.LatencySensitive {
		return sh.fab.cfg.Admission.LatencyDeadline
	}
	return sh.fab.cfg.Admission.ThroughputDeadline
}

// deadlineFor maps a request class to the completion target admission
// predicts against. With Admission.Adaptive and a warm estimator it is
// derived from the observed distribution — deadlineFactor × the
// class's windowed p99 service time — clamped to [1/2, 2] × the static
// deadline so the admission target tracks what the device can do
// without wandering away from what was promised. It governs the
// early-drop prediction only; deadline-miss *scoring* always uses
// staticDeadlineFor (see worker).
func (sh *Shard) deadlineFor(c sched.Class) sim.Time {
	static := sh.staticDeadlineFor(c)
	if !sh.fab.cfg.Admission.Adaptive {
		return static
	}
	ce := sh.svc.Class(c.String())
	ce.Observe(int64(sh.fab.eng.Now()))
	if ce.WindowCount() < adaptiveMinSamples {
		return static
	}
	d := sim.Time(deadlineFactor * float64(ce.Quantile(0.99)))
	if d < static/2 {
		d = static / 2
	}
	if d > 2*static {
		d = 2 * static
	}
	return d
}

// predictMiss reports whether a request admitted now would already
// miss its deadline given the queue ahead of it: the queue drains at
// the observed all-class mean service rate across the worker pool, and
// the request itself is held to its class's observed p99. Cold
// estimators never drop — the static policy needs no prediction.
func (sh *Shard) predictMiss(c sched.Class) bool {
	now := int64(sh.fab.eng.Now())
	all := sh.svc.Class(svcAll)
	all.Observe(now)
	if all.WindowCount() < adaptiveMinSamples {
		return false
	}
	wait := float64(sh.queue.Len()) * all.EWMA() / float64(sh.fab.cfg.WorkersPerShard)
	ce := sh.svc.Class(c.String())
	ce.Observe(now) // a stale post-idle window must age out, not drop
	tail := float64(ce.Quantile(0.99))
	if tail <= 0 {
		tail = all.EWMA()
	}
	return sim.Time(wait+tail) > sh.deadlineFor(c)
}

// worker is one serving process: drain a batch, execute it, settle the
// deadline ledger, feed the service-time estimator. Workers exit when
// the shard stops serving (fabric stopped, shard retired or its device
// dead) and their queue is empty (Stop without drain empties it for
// them).
func (sh *Shard) worker(p *sim.Proc) {
	// Per-worker scratch, reused by every drain.
	batch := make([]*Op, 0, sh.fab.cfg.Batch.MaxOps)
	puts := make([]kvstore.BatchOp, 0, sh.fab.cfg.Batch.MaxOps)
	// The worker's one park, re-armed before each wait: a Cond is in
	// sh.waiters only while its worker awaits it, and whoever fires it
	// takes it off the list first.
	park := sim.NewCond(p.Engine())
	for {
		for sh.queue.Len() == 0 {
			if sh.fab.stopped || sh.retired || sh.down {
				return
			}
			park.Reset()
			sh.waiters = append(sh.waiters, park)
			park.Await(p)
		}
		sh.serveBatch(p, batch, puts)
	}
}

// settle closes one request's serving ledger: failures count as engine
// errors, successes feed the service-time estimator and the per-class
// deadline scoring, and done fires either way. Misses are always
// scored against the configured SLO, never the derived admission
// target: an adaptive fabric must not grade itself on a relaxed curve,
// or static-vs-adaptive miss rates would compare different success
// criteria. A put whose commit was still waiting for its sync when its
// device lost power is dropped, like a request queued at that moment.
func (sh *Shard) settle(op *Op, start sim.Time, err error) {
	switch {
	case errors.Is(err, ErrCrashed):
		sh.stats.Dropped++
		err = ErrCrashed
	case err != nil:
		// Engine failures are neither served nor latency samples.
		sh.fab.Errors++
		sh.stats.Failed++
	default:
		now := sh.fab.eng.Now()
		if sh.svc != nil {
			svc := int64(now - start)
			sh.svc.Record(op.Class.String(), int64(now), svc)
			sh.svc.Record(svcAll, int64(now), svc)
		}
		sh.stats.Served++
		sh.fab.classCounters(op.Class).Served++
		sh.fab.shardLat.Record(sh.name, int64(now-op.arrived))
		if d := sh.staticDeadlineFor(op.Class); d > 0 && now-op.arrived > d {
			sh.stats.DeadlineMissed++
			sh.fab.classCounters(op.Class).DeadlineMissed++
		}
	}
	sh.finish(op, err)
}

// finish recycles a settled request's record and hands err to its
// submitter. The record goes back on the pool first, because done may
// submit again (and take it).
func (sh *Shard) finish(op *Op, err error) {
	done := op.done
	*op = Op{}
	sh.ops.Put(op)
	if done != nil {
		done(err)
	}
}

// serveBatch drains up to MaxOps queued ops into batch and serves them:
// admission-wait stamps settle in one pass at the drain instant, the
// drain is stably partitioned — gets and scans first, in arrival order,
// each served in place, then every put of the drain handed to the store
// as one group commit (handOff) that settles from its durability
// callback while the worker goes on to its next drain — and worker CPU
// is charged full serveCost once per batch plus batchOpCost per further
// op: the fixed parse/route/serialize work is paid once, the marginal
// per-op work every time. A worker that then finds the memtable full
// runs the checkpoint before it drains again. The writer would group
// per-put hand-offs too, but the drain's one commit still pays: served
// in arrival order with one hand-off per put, kv_sat measured 6 % fewer
// ops/s and 8 % more write amplification (PR 25).
//
// Serving a drain's reads ahead of its puts is inside the ordering a
// shard already offers: every op in the drain is queued and un-acked, a
// pool of two or more workers serves such ops out of arrival order
// anyway, and order among the puts — the only order that decides what a
// key ends up holding — is kept: groups reach the log, and settle, in
// hand-off order. A one-worker shard loses its strict arrival order by
// it: a get behind an un-acked put on its key, in the same drain or the
// next, reads the older value (doc.go, "Order within a drain").
func (sh *Shard) serveBatch(p *sim.Proc, batch []*Op, puts []kvstore.BatchOp) {
	drained := p.Now()
	reads := 0 // batch[:reads] holds the gets and scans, batch[reads:] the puts
	for sh.queue.Len() > 0 && len(batch) < sh.fab.cfg.Batch.MaxOps {
		op := sh.queue.Pop()
		if op.Span != nil {
			op.Span.Stamp(obs.StageAdmission, drained-op.arrived)
		}
		batch = append(batch, op)
		if op.Kind != OpPut {
			copy(batch[reads+1:], batch[reads:])
			batch[reads] = op
			reads++
		}
	}
	sh.busy++
	for lo := 0; lo < len(batch); {
		hi := lo + 1
		if lo == reads {
			hi = len(batch)
		}
		group := batch[lo:hi]
		// Bind the group's first traced span so the block layer stamps
		// the I/Os this group issues; grouped siblings share the same
		// storage round trip, so one span carrying it is exact for the
		// batch total (the invariant E20 checks), not double-counted.
		var bound *obs.Span
		for _, op := range group {
			if op.Span != nil {
				bound = op.Span
				break
			}
		}
		if bound != nil {
			sh.fab.tracer.Bind(p, bound)
		}
		// The batch's first op pays the full serveCost, every other
		// op batchOpCost.
		cost := sim.Time(len(group)) * batchOpCost
		if lo == 0 {
			cost += serveCost - batchOpCost
		}
		// Service time runs from the group's own start: the groups ahead
		// of it in the batch are queueing, which predictMiss already
		// accounts for by queue length.
		start := p.Now()
		p.Sleep(cost)
		var err error
		if lo == reads {
			sh.handOff(p, group, puts, start)
		} else {
			err = sh.execute(p, group[0])
		}
		if bound != nil {
			sh.fab.tracer.Unbind(p)
		}
		if lo < reads {
			sh.settle(group[0], start, err)
		}
		lo = hi
	}
	if err := sh.sys.Store.CheckpointIfFull(p); err != nil {
		sh.fab.Errors++
	}
	sh.busy--
	clear(batch) // the scratch must not pin served ops
}

// putGroup is one drain's puts between their hand-off to the store and
// their settle. Groups are pooled per shard with land bound once, so a
// hand-off allocates none of this.
type putGroup struct {
	sh    *Shard
	ops   []*Op
	start sim.Time
	land  func(error)
}

// handOff gives a drain's puts to the store as one group commit
// (kvstore.ApplyBatchAsync, staged in puts) without waiting for it: the
// group settles, in arrival order, when the log writer reports its sync.
func (sh *Shard) handOff(p *sim.Proc, ops []*Op, puts []kvstore.BatchOp, start sim.Time) {
	g := sh.putPool.Get()
	if g == nil {
		g = &putGroup{sh: sh}
		g.land = g.landed
	}
	g.ops, g.start = append(g.ops, ops...), start
	puts = puts[:0]
	for _, op := range ops {
		puts = append(puts, kvstore.BatchOp{Key: op.Key, Value: op.Value})
	}
	err := sh.sys.Store.ApplyBatchAsync(p, puts, g.land)
	clear(puts) // the store copied what it keeps; do not pin the keys
	if err != nil {
		g.land(err)
	}
}

// landed settles every put of the group with its commit's outcome, then
// returns the group to the pool.
func (g *putGroup) landed(err error) {
	for _, op := range g.ops {
		g.sh.settle(op, g.start, err)
	}
	clear(g.ops)
	g.ops = g.ops[:0]
	g.sh.putPool.Put(g)
}

// execute serves one get or scan against the shard's store.
func (sh *Shard) execute(p *sim.Proc, op *Op) error {
	st := sh.sys.Store
	switch op.Kind {
	case OpGet:
		_, err := st.Get(p, op.Key)
		if errors.Is(err, kvstore.ErrNotFound) {
			return nil
		}
		return err
	default: // OpScan
		limit := op.ScanLimit
		if limit <= 0 {
			limit = 32
		}
		n := 0
		return st.ScanFrom(p, op.Key, func(_, _ []byte) bool {
			n++
			return n < limit
		})
	}
}

// tokenBucket is a virtual-time token bucket: rate tokens per second up
// to a burst cap, starting full — a shard's admission rate cap. The
// zero value is inactive: never empty, never refilled.
type tokenBucket struct {
	rate   float64
	burst  float64
	avail  float64
	refill sim.Time // last refill instant
}

// newTokenBucket returns a full bucket refilling at rate tokens/sec up
// to burst (minimum 1). rate <= 0 yields an inactive bucket.
func newTokenBucket(rate float64, burst int, now sim.Time) tokenBucket {
	if rate <= 0 {
		return tokenBucket{}
	}
	if burst < 1 {
		burst = 1
	}
	return tokenBucket{rate: rate, burst: float64(burst), avail: float64(burst), refill: now}
}

// active reports whether the bucket enforces a rate.
func (b *tokenBucket) active() bool { return b.rate > 0 }

// tokens reports the balance after topping the bucket up to now.
// Refilling at or before the last refill instant mints nothing.
func (b *tokenBucket) tokens(now sim.Time) float64 {
	if b.rate > 0 && now > b.refill {
		b.avail = min(b.avail+b.rate*(now-b.refill).Seconds(), b.burst)
		b.refill = now
	}
	return b.avail
}
