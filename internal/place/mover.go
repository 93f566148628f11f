package place

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// MoverConfig tunes the live-migration controller.
type MoverConfig struct {
	// Interval is the poll cadence (0 = 1ms).
	Interval sim.Time
	// DriftMinSamples is the window occupancy required before a
	// device's drift baseline arms or its trend is trusted (0 = 24).
	DriftMinSamples int64
	// CopyBatch is keys per bulk/delta copy transaction (0 = 8).
	CopyBatch int
}

// The mover's fixed parameters.
const (
	// driftThreshold arms drift alarms per device over the stack's
	// calibration estimator, one per op class: a device whose windowed
	// read or write service time reaches this multiple of its armed
	// baseline is evacuated. Both classes are watched because steering
	// itself moves reads off a sick device — quorum writes cannot be
	// steered away, so the write class keeps reporting a device the
	// read class has gone quiet on. The alarms need
	// serve.Config.Calibrate and are silently inactive without it (the
	// estimator is the sensor).
	driftThreshold = 1.5
	// At most catchupRounds pre-cutover delta passes run while the
	// dirty set stays above catchupThreshold keys; whatever delta
	// remains is copied under the cutover hold.
	catchupRounds    = 4
	catchupThreshold = 16
)

// Mover watches the fabric's health signals and performs live replica
// migrations: drift-alarmed devices are evacuated, degraded groups are
// rebuilt. One migration runs at a time (the mover is one process);
// groups keep serving throughout.
type Mover struct {
	pl  *Placement
	cfg MoverConfig
	led metrics.PlaceLedger

	alarms [][]*metrics.DriftAlarm // per device, read+write class; empty without an estimator
	evac   []bool                  // devices already being drained
}

// StartMover builds the migration controller and starts its polling
// process on the fabric's engine. It stops itself when the fabric
// stops.
func (pl *Placement) StartMover(cfg MoverConfig) *Mover {
	if cfg.Interval <= 0 {
		cfg.Interval = sim.Millisecond
	}
	if cfg.DriftMinSamples <= 0 {
		cfg.DriftMinSamples = 24
	}
	if cfg.CopyBatch <= 0 {
		cfg.CopyBatch = 8
	}
	m := &Mover{
		pl:     pl,
		cfg:    cfg,
		alarms: make([][]*metrics.DriftAlarm, pl.fab.Devices()),
		evac:   make([]bool, pl.fab.Devices()),
	}
	for d := 0; d < pl.fab.Devices(); d++ {
		if est := pl.fab.Stack(d).ServiceEstimator(); est != nil {
			m.alarms[d] = []*metrics.DriftAlarm{
				est.Class(blockdev.SvcRead).DriftAlarm(driftThreshold, cfg.DriftMinSamples),
				est.Class(blockdev.SvcWrite).DriftAlarm(driftThreshold, cfg.DriftMinSamples),
			}
		}
	}
	pl.mover = m
	pl.fab.Engine().Go(m.run)
	return m
}

// run is the mover process: poll, trigger, migrate, repeat.
func (m *Mover) run(p *sim.Proc) {
	for {
		p.Sleep(m.cfg.Interval)
		if m.pl.fab.Stopped() {
			return
		}
		m.poll(p)
	}
}

// poll checks every trigger once and performs any migrations they
// demand, serially.
func (m *Mover) poll(p *sim.Proc) {
	now := int64(p.Now())
	// Repair outranks every performance trigger: a group running below
	// full replication is one more death from unavailable, so rebuilds
	// go first. A group that found no destination (spare slots
	// exhausted) is retried every poll and rebuilds the moment a slot
	// frees.
	for _, g := range m.pl.groups {
		if m.pl.fab.Stopped() {
			return
		}
		if len(g.replicas) > 0 && len(g.replicas) < m.pl.replicas && g.mig == nil {
			m.repair(p, g)
		}
	}
	// Drift: a tripped device is evacuated — every group with a replica
	// there moves it elsewhere. The evacuation flag persists, and every
	// poll retries whatever is still stranded on the device: a replica
	// that found no destination this round (spare slots exhausted,
	// sibling constraints) leaves again the moment a slot frees.
	for d, as := range m.alarms {
		if len(as) == 0 {
			continue
		}
		if !m.evac[d] {
			tripped := false
			for _, a := range as {
				if a.Check(now) {
					tripped = true
				}
			}
			if !tripped {
				continue
			}
			m.led.DriftTrips++
			m.evac[d] = true
		}
		for _, g := range m.pl.groups {
			if m.pl.fab.Stopped() {
				return
			}
			for _, sh := range g.replicas {
				if sh.DeviceIndex() == d {
					m.migrate(p, g, sh)
					break
				}
			}
		}
	}
}

// destination picks the device for g's new replica: not a device the
// group already occupies, not dead, not under evacuation, with a free
// region slot, healthiest first (spares usually win — they are idle),
// free slots breaking ties. The dead-device check matters even though
// a dead device keeps its slots: a *repair* destination search runs
// while the ex-replica's device no longer appears in g.replicas, so
// only DeviceDown keeps the rebuild off the device that just died.
func (m *Mover) destination(g *Group) (int, error) {
	taken := map[int]bool{}
	for _, sh := range g.replicas {
		taken[sh.DeviceIndex()] = true
	}
	best, bestFree := -1, 0
	var bestScore devScore
	for d := 0; d < m.pl.fab.Devices(); d++ {
		if taken[d] || m.evac[d] || m.pl.fab.DeviceDown(d) {
			continue
		}
		free := m.pl.fab.FreeSlots(d)
		if free == 0 {
			continue
		}
		s := m.pl.deviceScore(d)
		if best < 0 || s.less(bestScore) || (!bestScore.less(s) && free > bestFree) {
			best, bestScore, bestFree = d, s, free
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("place: no destination device for logical shard %d", g.idx)
	}
	return best, nil
}

// copySource picks the replica a copy streams from: the healthiest
// member excluding skip (the replica being moved — it streams only
// when it is the group's sole member).
func (m *Mover) copySource(g *Group, skip *serve.Shard) *serve.Shard {
	var from *serve.Shard
	for _, sh := range g.replicas {
		if sh == skip {
			continue
		}
		if from == nil || m.pl.deviceScore(sh.DeviceIndex()).less(m.pl.deviceScore(from.DeviceIndex())) {
			from = sh
		}
	}
	if from == nil {
		return skip
	}
	return from
}

// migrate moves g's replica src to a fresh shard elsewhere while the
// group keeps serving: bulk copy from the healthiest surviving
// replica's snapshot, delta catch-up of keys written meanwhile, then a
// cutover that holds new writes, drains in-flight ones, copies the
// last delta and swaps. A fabric stop mid-copy aborts cleanly.
func (m *Mover) migrate(p *sim.Proc, g *Group, src *serve.Shard) {
	if g.mig != nil || m.pl.fab.Stopped() {
		return
	}
	d, err := m.destination(g)
	if err != nil {
		// Nowhere to go: not an error loop, just nothing to do now.
		return
	}
	dst, err := m.pl.fab.AddReplica(p, g.idx, d)
	if err != nil {
		return
	}
	mig := &migration{src: src, dst: dst, dirty: map[string]struct{}{}}
	g.mig = mig
	m.event(p, obs.EventMigrationStart, g, fmt.Sprintf(
		"replica leaving device %d for device %d", src.DeviceIndex(), d))

	// The copy source: the healthiest *surviving* replica — acked data
	// is identical on all of them, and the device being evacuated is
	// the last one that should stream a whole region, so src is only
	// read when it is the group's sole replica.
	from := m.copySource(g, src)

	// As in repair: a copy source whose device died cannot be trusted to
	// feed the new replica, even while host RAM still answers for it.
	srcLost := func() bool { return m.pl.fab.DeviceDown(from.DeviceIndex()) }

	abort := func() {
		held := mig.held
		mig.held = nil
		g.mig = nil
		m.pl.fab.Retire(dst)
		m.led.MigrationsAborted++
		m.event(p, obs.EventMigrationAbort, g, fmt.Sprintf(
			"copy to device %d abandoned; source replica stays on device %d",
			d, src.DeviceIndex()))
		g.releaseHeld(held) // fails with ErrStopped on a stopped fabric
	}

	copied, err := from.System().Store.CopyInto(p, dst.System().Store, m.cfg.CopyBatch)
	m.led.CopiedKeys += copied
	if err != nil || srcLost() || m.pl.fab.Stopped() {
		abort()
		return
	}
	// Delta catch-up: re-copy what the write path touched while the
	// bulk copy ran; repeat while the delta stays large, bounded.
	for round := 0; round < catchupRounds && len(mig.dirty) > catchupThreshold; round++ {
		if err := m.copyDelta(p, g, from, dst, mig); err != nil || srcLost() || m.pl.fab.Stopped() {
			abort()
			return
		}
	}
	// Cutover: new writes hold, in-flight writes settle everywhere,
	// the final delta lands, the replica set swaps.
	mig.cutover = true
	g.awaitWrites(p)
	if err := m.copyDelta(p, g, from, dst, mig); err != nil || srcLost() || m.pl.fab.Stopped() {
		abort()
		return
	}
	if err := dst.System().Store.Checkpoint(p); err != nil {
		abort()
		return
	}
	if g.contains(src) {
		g.swap(src, dst)
		m.pl.fab.Retire(src)
	} else {
		// src's device died mid-copy and deviceDown already dropped it:
		// the migration just became the rebuild, so the new replica joins
		// instead of swapping in.
		g.replicas = append(g.replicas, dst)
	}
	held := mig.held
	mig.held = nil
	g.mig = nil
	g.restored(p.Now())
	m.led.Migrations++
	m.event(p, obs.EventMigrationFinish, g, fmt.Sprintf(
		"replica settled on device %d; %d keys bulk-copied", d, copied))
	g.releaseHeld(held)
}

// repair rebuilds a group running below full replication: a fresh
// replica is carved on the healthiest live device with a free slot,
// bulk-copied from the healthiest survivor's snapshot, caught up
// through the delta ledger, and joined to the replica set under a
// cutover hold — the migration machinery with no source to retire.
// Death of the last survivor mid-copy aborts loudly: the copy errors,
// the half-built replica retires, and the group refuses requests with
// ErrDeviceDown rather than serving a partial store.
func (m *Mover) repair(p *sim.Proc, g *Group) {
	if g.mig != nil || m.pl.fab.Stopped() {
		return
	}
	d, err := m.destination(g)
	if err != nil {
		// Spare slots exhausted: the group stays degraded, counted, and
		// rebuilds the moment a slot frees.
		m.pl.repled.RepairStalls++
		return
	}
	dst, err := m.pl.fab.AddReplica(p, g.idx, d)
	if err != nil {
		m.pl.repled.RepairStalls++
		return
	}
	mig := &migration{dst: dst, dirty: map[string]struct{}{}}
	g.mig = mig
	m.event(p, obs.EventRepairStart, g, fmt.Sprintf(
		"rebuilding lost replica on device %d from %d survivor(s)", d, len(g.replicas)))

	from := m.copySource(g, nil)

	// srcLost: the survivor feeding this rebuild died. Host RAM may
	// still answer reads for its store, but nothing behind those pages
	// is durable anymore and the delta keys may exist nowhere else —
	// finishing the rebuild from a dead source would be silent loss, so
	// it aborts loudly instead.
	srcLost := func() bool { return m.pl.fab.DeviceDown(from.DeviceIndex()) }

	abort := func() {
		held := mig.held
		mig.held = nil
		g.mig = nil
		m.pl.fab.Retire(dst)
		m.pl.repled.RepairsAborted++
		m.event(p, obs.EventRepairAbort, g, fmt.Sprintf(
			"rebuild on device %d abandoned; group stays at %d replica(s)", d, len(g.replicas)))
		g.releaseHeld(held)
	}

	copied, err := from.System().Store.CopyInto(p, dst.System().Store, m.cfg.CopyBatch)
	m.led.CopiedKeys += copied
	if err != nil || srcLost() || m.pl.fab.Stopped() {
		abort()
		return
	}
	for round := 0; round < catchupRounds && len(mig.dirty) > catchupThreshold; round++ {
		if err := m.copyDelta(p, g, from, dst, mig); err != nil || srcLost() || m.pl.fab.Stopped() {
			abort()
			return
		}
	}
	// Cutover: writes accepted during the rebuild hold, in-flight ones
	// settle, the last delta lands, the rebuilt replica joins.
	mig.cutover = true
	g.awaitWrites(p)
	if err := m.copyDelta(p, g, from, dst, mig); err != nil || srcLost() || m.pl.fab.Stopped() {
		abort()
		return
	}
	if err := dst.System().Store.Checkpoint(p); err != nil {
		abort()
		return
	}
	g.replicas = append(g.replicas, dst)
	held := mig.held
	mig.held = nil
	g.mig = nil
	g.restored(p.Now())
	m.event(p, obs.EventRepairDone, g, fmt.Sprintf(
		"replica rebuilt on device %d; %d keys copied from survivor", d, copied))
	g.releaseHeld(held)
}

// event reports one migration lifecycle transition to the fabric's
// health monitor (inert when monitoring is off).
func (m *Mover) event(p *sim.Proc, kind obs.EventKind, g *Group, detail string) {
	m.pl.fab.Monitor().Emit(obs.HealthEvent{
		Kind: kind, At: p.Now(), Name: fmt.Sprintf("shard%d", g.idx),
		Detail: detail, Value: float64(m.led.Migrations),
	})
}

// copyDelta drains the migration's dirty set once, charging the
// mover's catch-up ledger.
func (m *Mover) copyDelta(p *sim.Proc, g *Group, from, dst *serve.Shard, mig *migration) error {
	n, err := m.pl.copyDelta(p, from, dst, mig, m.cfg.CopyBatch)
	m.led.CatchupRounds++
	m.led.DeltaKeys += n
	return err
}

// copyDelta drains mig's dirty set once: the current keys are re-read
// from the copy source and written to the destination in batches; keys
// written while this pass runs land in a fresh dirty set for the next
// pass (or the cutover's final one). It returns the keys copied. It is
// placement-level, not mover-level, because crash resync
// (Placement.CrashDevice) catches up a reopened replica the same way.
func (pl *Placement) copyDelta(p *sim.Proc, from, dst *serve.Shard, mig *migration, batch int) (int64, error) {
	keys := make([]string, 0, len(mig.dirty))
	for k := range mig.dirty {
		keys = append(keys, k)
	}
	// Map order is random; the simulation is not. Sort so every run
	// issues the same I/O sequence.
	sort.Strings(keys)
	mig.dirty = map[string]struct{}{}
	var copied int64
	for i := 0; i < len(keys); i += batch {
		end := i + batch
		if end > len(keys) {
			end = len(keys)
		}
		tx := dst.System().Store.Begin()
		n := 0
		for _, k := range keys[i:end] {
			v, err := from.System().Store.Get(p, []byte(k))
			if errors.Is(err, kvstore.ErrNotFound) {
				continue // written but rejected everywhere, or deleted
			}
			if err != nil {
				return copied, err
			}
			tx.Put([]byte(k), v)
			n++
			copied++
		}
		if n > 0 {
			if err := tx.Commit(p); err != nil {
				return copied, err
			}
		}
	}
	return copied, nil
}
