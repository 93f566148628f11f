package place

import (
	"fmt"

	"repro/internal/blockdev"
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
}

// driftThreshold arms drift alarms per device over the stack's
// calibration estimator, one per op class: a device whose windowed read
// or write service time reaches this multiple of its armed baseline is
// evacuated. Both classes are watched because steering itself moves
// reads off a sick device — quorum writes cannot be steered away, so
// the write class keeps reporting a device the read class has gone
// quiet on. The alarms need a positive serve.Config.CalibrateWindow and
// are silently inactive without one (the estimator is the sensor).
const driftThreshold = 1.5

// Mover watches the fabric's health signals and performs live replica
// migrations: drift-alarmed devices are evacuated, degraded groups are
// rebuilt. One migration runs at a time (the mover is one process);
// groups keep serving throughout.
type Mover struct {
	pl  *Placement
	cfg MoverConfig

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
			m.pl.led.DriftTrips++
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

// reserve installs g's migration and only then builds its destination
// on device d. AddReplica opens a store, which takes virtual time, and
// the group must already read as mid-migration meanwhile — or a
// CrashDevice starting in that window would install its own migration
// only to have it overwritten. It reports whether the destination was
// built; if not, the reservation is settled away.
func (m *Mover) reserve(p *sim.Proc, g *Group, d int) bool {
	g.mig = &migration{dirty: map[string]struct{}{}}
	dst, err := m.pl.fab.AddReplica(p, g.idx, d)
	if err != nil {
		g.settle(p.Now())
		return false
	}
	g.mig.dst = dst
	return true
}

// migrate moves g's replica src to a fresh shard elsewhere while the
// group keeps serving: one sync pass with src leaving. A fabric stop
// mid-copy aborts cleanly and src stays where it is.
func (m *Mover) migrate(p *sim.Proc, g *Group, src *serve.Shard) {
	if g.mig != nil || m.pl.fab.Stopped() {
		return
	}
	d, err := m.destination(g)
	if err != nil {
		// Nowhere to go: not an error loop, just nothing to do now.
		return
	}
	if !m.reserve(p, g, d) {
		return
	}
	m.pl.event(p, obs.EventMigrationStart, g, fmt.Sprintf(
		"replica leaving device %d for device %d", src.DeviceIndex(), d))
	copied, err := m.pl.sync(p, g, src, false)
	if err != nil {
		m.pl.led.MigrationsAborted++
		m.pl.event(p, obs.EventMigrationAbort, g, fmt.Sprintf(
			"copy to device %d abandoned; source replica stays on device %d",
			d, src.DeviceIndex()))
		return
	}
	m.pl.led.Migrations++
	m.pl.event(p, obs.EventMigrationFinish, g, fmt.Sprintf(
		"replica settled on device %d; %d keys bulk-copied", d, copied))
}

// repair rebuilds a group running below full replication: a fresh
// replica is carved on the healthiest live device with a free slot and
// joins through one sync pass with nothing leaving. Death of the last
// survivor mid-copy aborts loudly: the half-built replica retires, and
// the group refuses requests with ErrDeviceDown rather than serving a
// partial store.
func (m *Mover) repair(p *sim.Proc, g *Group) {
	if g.mig != nil || m.pl.fab.Stopped() {
		return
	}
	d, err := m.destination(g)
	if err != nil || !m.reserve(p, g, d) {
		// Spare slots exhausted: the group stays degraded, counted, and
		// rebuilds the moment a slot frees.
		m.pl.repled.RepairStalls++
		return
	}
	m.pl.event(p, obs.EventRepairStart, g, fmt.Sprintf(
		"rebuilding lost replica on device %d from %d survivor(s)", d, len(g.replicas)))
	copied, err := m.pl.sync(p, g, nil, false)
	if err != nil {
		m.pl.repled.RepairsAborted++
		m.pl.event(p, obs.EventRepairAbort, g, fmt.Sprintf(
			"rebuild on device %d abandoned; group stays at %d replica(s)", d, len(g.replicas)))
		return
	}
	m.pl.event(p, obs.EventRepairDone, g, fmt.Sprintf(
		"replica rebuilt on device %d; %d keys copied from survivor", d, copied))
}
