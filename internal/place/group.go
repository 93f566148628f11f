package place

import (
	"slices"

	"repro/internal/kvstore"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Group is one logical shard's replica set: R physical shards on
// distinct devices serving as a single frontend target. Reads are
// steered to the currently healthiest replica's device; writes commit
// on every replica before the ack.
type Group struct {
	pl       *Placement
	idx      int
	replicas []*serve.Shard
	rr       int
	scores   []devScore // steer's scratch, one per replica

	inflight int         // quorum writes submitted, not yet fully settled
	drain    []*sim.Cond // procs awaiting inflight == 0 (cutover)
	mig      *migration  // non-nil while this group's shard is moving
	writes   sim.Pool[quorumWrite]

	// Under-replication clock: degraded is set when a device death drops
	// the group below full replication, degradedSince stamps when — the
	// window the repair ledger charges when the rebuild lands.
	degraded      bool
	degradedSince sim.Time
}

// heldOp is a write parked during a migration cutover.
type heldOp struct {
	op   serve.Op
	done func(error)
	at   sim.Time
}

// migration is one in-flight sync of dst into the group (Placement.sync),
// installed by whoever started it: the Mover or CrashDevice.
type migration struct {
	dst *serve.Shard
	// dirty is the delta the write path feeds: every key written to the
	// group since the current copy pass began. Catch-up swaps in a
	// fresh map and re-copies these from a surviving replica.
	dirty   map[string]struct{}
	cutover bool
	held    []heldOp
}

// Replicas returns the group's current replica set.
func (g *Group) Replicas() []*serve.Shard { return g.replicas }

// Degraded reports whether the group is serving below full replication
// (a device death dropped a replica that has not been rebuilt yet).
func (g *Group) Degraded() bool { return g.degraded }

// Systems implements serve.Target: every replica's KV system, so
// preload and churn write all replicas and the group starts identical.
func (g *Group) Systems() []*kvstore.System {
	out := make([]*kvstore.System, len(g.replicas))
	for i, sh := range g.replicas {
		out[i] = sh.System()
	}
	return out
}

// Submit implements serve.Target: a read goes to a replica that holds
// it in memory before device signals steer it (steer; neither costs
// virtual time), and writes commit on every replica before the ack. A group with no live
// replica left refuses loudly with ErrDeviceDown — unavailability is an
// error the client sees, never a silently dropped request.
func (g *Group) Submit(op serve.Op, done func(error)) {
	if len(g.replicas) == 0 {
		g.pl.repled.Unavailable++
		if done != nil {
			done(serve.ErrDeviceDown)
		}
		return
	}
	if op.Kind == serve.OpPut {
		g.submitWrite(op, done)
		return
	}
	if g.degraded {
		g.pl.repled.DegradedReads++
	}
	sh, steered, avoided := g.steer(op)
	if steered {
		// Trace annotation: this read was routed by live device
		// signals, possibly away from a collecting device.
		op.Span.NoteSteered(avoided)
	}
	sh.Submit(op, done)
}

// steer picks the replica for one read. Residency comes first: a get
// goes to the device-ranked pick if that replica would answer it from
// memory (kvstore.Store.Resident: the key in its memtables, or every
// page of its path cached), else to the first replica that would, and
// counts as a resident read. Only a read that must reach a device, or
// a scan (its later leaves are unknown at submission), goes where the
// device signals rank it (score) and counts as steered or tied.
// Neither the probe nor the scores charge virtual time.
func (g *Group) steer(op serve.Op) (pick *serve.Shard, steered, avoidedGC bool) {
	n := len(g.replicas)
	if n == 1 {
		return g.replicas[0], false, false
	}
	best, tie, avoidedGC := g.score()
	pick = g.replicas[best]
	if op.Kind == serve.OpGet {
		if sh := g.residentPick(pick, op.Key); sh != nil {
			g.pl.led.ResidentReads++
			return sh, false, false
		}
	}
	if tie {
		g.pl.led.TieReads++
		return pick, false, false
	}
	g.pl.led.SteeredReads++
	if avoidedGC {
		g.pl.led.AvoidedGC++
	}
	return pick, true, avoidedGC
}

// residentPick returns the replica that answers a get of key from
// memory: pick if it does, else the first other replica that does, else
// nil.
func (g *Group) residentPick(pick *serve.Shard, key []byte) *serve.Shard {
	if pick.System().Store.Resident(key) {
		return pick
	}
	for _, sh := range g.replicas {
		if sh != pick && sh.System().Store.Resident(key) {
			return sh
		}
	}
	return nil
}

// score ranks the replicas by their devices' signals — fewest chips
// collecting, then lowest GC urgency, then lowest observed read service
// time — and returns the best one's index. The signals are the peer
// interface's; a block-device fabric has none of them. tie reports that
// every device looked the same, so the index is the round-robin turn
// instead; avoidedGC that the best device has fewer chips collecting
// than some other replica's.
func (g *Group) score() (best int, tie, avoidedGC bool) {
	n := len(g.replicas)
	if cap(g.scores) < n {
		g.scores = make([]devScore, n)
	}
	scores := g.scores[:n] // every entry is written below
	ties := 1
	maxChips := 0
	for i := range g.replicas {
		scores[i] = g.pl.deviceScore(g.replicas[i].DeviceIndex())
		if c := scores[i].chips; c > maxChips {
			maxChips = c
		}
		if i == 0 {
			continue
		}
		switch {
		case scores[i].less(scores[best]):
			best, ties = i, 1
		case !scores[best].less(scores[i]):
			ties++
		}
	}
	if ties == n {
		// Every device looks the same: fall back to round-robin so load
		// still spreads.
		best = g.rr % n
		g.rr++
		return best, true, false
	}
	return best, false, maxChips > 0 && scores[best].chips < maxChips
}

// submitWrite runs one write through group admission and, when
// admitted, commits it on every replica before acking. During a
// migration the key joins the dirty delta; during its cutover the
// write parks until the new replica set is live.
func (g *Group) submitWrite(op serve.Op, done func(error)) {
	fab := g.pl.fab
	if len(g.replicas) == 0 {
		g.pl.repled.Unavailable++
		if done != nil {
			done(serve.ErrDeviceDown)
		}
		return
	}
	if fab.Stopped() || fab.Crashing() {
		// The shard path reports the right terminal error without
		// applying anything.
		g.replicas[0].Submit(op, done)
		return
	}
	if m := g.mig; m != nil && m.cutover {
		m.held = append(m.held, heldOp{op: op, done: done, at: fab.Engine().Now()})
		g.pl.led.HeldWrites++
		return
	}
	// Group-level admission: every replica must admit the write, or no
	// replica sees it — a quorum write must never be half-applied
	// because one queue was full. The peeks and the submits below run
	// in the same event, so the answers cannot go stale in between.
	for _, sh := range g.replicas {
		if !sh.Admits(op.Class) {
			g.pl.led.WriteRejects++
			if done != nil {
				done(serve.ErrRejected)
			}
			return
		}
	}
	g.pl.led.QuorumWrites++
	if g.degraded {
		// Committed on fewer replicas than configured: acked, durable on
		// the survivors, but one more death away from unavailable — the
		// exposure the repair ledger totals.
		g.pl.repled.DegradedWrites++
	}
	g.inflight++
	w := g.writes.Get()
	if w == nil {
		w = &quorumWrite{g: g}
		w.settle = w.settled
	}
	w.key, w.done, w.remaining = op.Key, done, len(g.replicas)
	// Each replica fan-out lands in that shard's admission queue like
	// any other op; the shard's workers drain quorum writes alongside
	// client traffic and group them into multi-op commits
	// (kvstore.ApplyBatchAsync) — replication needs no placement-level
	// special case.
	for i, sh := range g.replicas {
		rop := op
		if i > 0 {
			// One replica carries the trace span; stamping all of them
			// would double-count every stage against one request.
			rop.Span = nil
		}
		sh.Submit(rop, w.settle)
	}
}

// quorumWrite is one write between its fan-out to the replicas and its
// last replica's settle. Records are pooled per group with settle bound
// once, so a fan-out allocates none of this.
type quorumWrite struct {
	g         *Group
	key       []byte
	done      func(error)
	remaining int
	err       error // the first replica error
	settle    func(error)
}

// settled counts one replica's outcome; the last one settles the write,
// recycling w before done runs.
func (w *quorumWrite) settled(err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
	if w.remaining--; w.remaining > 0 {
		return
	}
	g, done, werr := w.g, w.done, w.err
	// The migration delta is recorded at *completion*, not at
	// submission: only now is the value published in the replica
	// stores, so only now can a catch-up copy actually read it. A
	// write that was already in flight when the migration began
	// (invisible to both the snapshot and any submit-time ledger)
	// lands here too — and in-flight writes drained by the cutover
	// barrier land before the barrier lifts, so the final delta
	// pass never misses them.
	if m := g.mig; m != nil {
		m.dirty[string(w.key)] = struct{}{}
	}
	w.key, w.done, w.err = nil, nil, nil
	g.writes.Put(w)
	g.inflight--
	if g.inflight == 0 && len(g.drain) > 0 {
		ws := g.drain
		g.drain = nil
		for _, c := range ws {
			c.Fire()
		}
	}
	if done != nil {
		done(werr)
	}
}

// awaitWrites blocks the calling process until every in-flight quorum
// write has settled on all its replicas — the cutover barrier: after
// it returns (with cutover already set, so nothing new enters), every
// acknowledged write is durably on the surviving replicas and the
// final delta copy will see it.
func (g *Group) awaitWrites(p *sim.Proc) {
	for g.inflight > 0 {
		c := sim.NewCond(p.Engine())
		g.drain = append(g.drain, c)
		c.Await(p)
	}
}

// settle ends the group's migration with the replica set as it now
// stands: the under-replication clock starts or stops, and the writes
// parked during cutover replay against the set, charging the hold time
// to the ledger (on a stopped fabric they fail with ErrStopped). The
// migration is cleared first so the replay takes the normal path.
func (g *Group) settle(now sim.Time) {
	held := g.mig.held
	g.mig = nil
	if len(g.replicas) < g.pl.replicas {
		g.degrade(now)
	}
	g.restored(now)
	for _, h := range held {
		g.pl.led.HoldNs += int64(now - h.at)
		g.submitWrite(h.op, h.done)
	}
}

// dropReplica removes sh from the replica set (no retire, no copy —
// the bookkeeping half of losing a replica).
func (g *Group) dropReplica(sh *serve.Shard) {
	if i := slices.Index(g.replicas, sh); i >= 0 {
		g.replicas = slices.Delete(g.replicas, i, i+1)
	}
}

// deviceDown handles device d's death for this group: replicas there
// leave the set immediately (the group serves degraded from the
// survivors — or refuses, loudly, if none remain), and the
// under-replication clock starts. The Mover's poll finds the group
// below strength and rebuilds it onto a spare.
func (g *Group) deviceDown(d int, now sim.Time) {
	for i := 0; i < len(g.replicas); {
		if g.replicas[i].DeviceIndex() != d {
			i++
			continue
		}
		g.degrade(now)
		g.pl.repled.ReplicasLost++
		g.replicas = append(g.replicas[:i], g.replicas[i+1:]...)
	}
}

// degrade starts the under-replication clock, once per degraded window.
func (g *Group) degrade(now sim.Time) {
	if !g.degraded {
		g.degraded = true
		g.degradedSince = now
	}
}

// restored settles the under-replication clock once the replica set is
// back at full strength (a completed repair, or a migration that
// doubled as one).
func (g *Group) restored(now sim.Time) {
	if !g.degraded || len(g.replicas) < g.pl.replicas {
		return
	}
	g.degraded = false
	g.pl.repled.Repairs++
	g.pl.repled.RepairNs += int64(now - g.degradedSince)
}
