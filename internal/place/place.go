package place

import (
	"errors"
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Placement groups a replicated fabric's physical shards into replica
// groups and serves as the frontend's router: one routing target per
// logical shard, quorum writes and steered reads inside each.
type Placement struct {
	fab      *serve.Fabric
	groups   []*Group
	targets  []serve.Target
	replicas int // configured replication factor (full strength)

	// led is the placement ledger: how every group steered reads and
	// fared with quorum writes, what every sync pass copied, and how the
	// Mover's triggers and migrations fared.
	led metrics.PlaceLedger
	// repled is the failure-domain ledger: device deaths, the degraded
	// window they open, and what the repair machinery did about them.
	repled metrics.RepairLedger
}

// New builds the placement over a fabric assembled with
// serve.Config.Replicas. Every logical shard must have its full
// replica set, each replica on a distinct device — which serve.New
// guarantees; the check here catches fabrics modified since.
func New(f *serve.Fabric) (*Placement, error) {
	cfg := f.Config()
	pl := &Placement{fab: f, replicas: cfg.Replicas}
	pl.groups = make([]*Group, cfg.Shards)
	for i := range pl.groups {
		pl.groups[i] = &Group{pl: pl, idx: i}
	}
	for _, sh := range f.Shards() {
		l := sh.Logical()
		if l < 0 || l >= len(pl.groups) {
			return nil, fmt.Errorf("place: shard %s names logical shard %d of %d", sh.Name(), l, len(pl.groups))
		}
		pl.groups[l].replicas = append(pl.groups[l].replicas, sh)
	}
	for _, g := range pl.groups {
		if len(g.replicas) != cfg.Replicas {
			return nil, fmt.Errorf("place: logical shard %d has %d replicas, want %d", g.idx, len(g.replicas), cfg.Replicas)
		}
		seen := map[int]bool{}
		for _, sh := range g.replicas {
			if seen[sh.DeviceIndex()] {
				return nil, fmt.Errorf("place: logical shard %d has two replicas on device %d", g.idx, sh.DeviceIndex())
			}
			seen[sh.DeviceIndex()] = true
		}
	}
	pl.targets = make([]serve.Target, len(pl.groups))
	for i, g := range pl.groups {
		pl.targets[i] = g
	}
	// The placement's steering/quorum/migration ledger joins the
	// fabric's unified telemetry snapshot, and — when the fabric runs a
	// sampler — the headline steering counters become time series too,
	// so migration activity lines up against latency on one clock.
	f.Registry().Attach("place_ledger", func() any { return pl.Ledger() })
	f.Registry().Attach("repair_ledger", func() any { return pl.repled })
	if s := f.Sampler(); s != nil {
		s.AddCounter("place.steered_reads", func() float64 { return float64(pl.Ledger().SteeredReads) })
		s.AddCounter("place.avoided_gc", func() float64 { return float64(pl.Ledger().AvoidedGC) })
		s.AddCounter("place.migrations", func() float64 { return float64(pl.Ledger().Migrations) })
		s.AddCounter("place.migrations_aborted", func() float64 { return float64(pl.Ledger().MigrationsAborted) })
		s.AddCounter("place.device_deaths", func() float64 { return float64(pl.repled.DeviceDeaths) })
		s.AddCounter("place.replicas_lost", func() float64 { return float64(pl.repled.ReplicasLost) })
		s.AddCounter("place.degraded_writes", func() float64 { return float64(pl.repled.DegradedWrites) })
		s.AddCounter("place.repairs", func() float64 { return float64(pl.repled.Repairs) })
		s.AddCounter("place.repairs_aborted", func() float64 { return float64(pl.repled.RepairsAborted) })
	}
	// Subscribe to device deaths: the fabric has already downed the dead
	// device's shards when this fires, so dropping them from their groups
	// completes the degrade — reads steer to survivors, quorum shrinks,
	// and the Mover's next poll starts the rebuild.
	f.OnDeviceDown(func(d int) {
		pl.repled.DeviceDeaths++
		now := f.Engine().Now()
		for _, g := range pl.groups {
			g.deviceDown(d, now)
		}
	})
	return pl, nil
}

// RepairLedger returns the placement's failure-domain accounting.
func (pl *Placement) RepairLedger() metrics.RepairLedger { return pl.repled }

// Targets implements serve.Router: one stable target per logical
// shard. Group membership changes under migration, but the table —
// and therefore every key's assignment — does not.
func (pl *Placement) Targets() []serve.Target { return pl.targets }

// Attach points the frontend's routing at the replica groups.
func (pl *Placement) Attach(fe *serve.Frontend) { fe.SetRouter(pl) }

// Groups returns the replica groups in logical-shard order.
func (pl *Placement) Groups() []*Group { return pl.groups }

// Ledger returns the placement-wide steering, quorum and migration
// ledger, which every group counts into.
func (pl *Placement) Ledger() metrics.PlaceLedger { return pl.led }

// event reports one sync lifecycle transition to the fabric's health
// monitor (inert when monitoring is off).
func (pl *Placement) event(p *sim.Proc, kind obs.EventKind, g *Group, detail string) {
	pl.fab.Monitor().Emit(obs.HealthEvent{
		Kind: kind, At: p.Now(), Name: fmt.Sprintf("shard%d", g.idx),
		Detail: detail, Value: float64(pl.led.Migrations),
	})
}

// CrashDevice models sudden power loss and restart of device d under
// replication — the fix for the volatile-ack trap at quorum scope. A
// quorum-acked write may have been volatile-buffered on the crashing
// replica and lost with the power, but quorum means every replica
// completed it before the ack, so each survivor holds it; the reopened
// replica therefore must not serve until it has resynced from a
// survivor. The sequence, all before any simulated time passes: the
// crashed replicas leave their groups (no read steers at a store about
// to reopen behind its peers) and a delta ledger starts recording the
// writes the survivors keep serving; then the device crashes and its
// shards reopen; then each reopened replica rejoins its group through
// one sync pass from the healthiest survivor.
//
// Every hit group is settled on every return. A resync that aborts is
// counted with the aborted repairs and reported in the returned error,
// and the groups after it still get theirs.
func (pl *Placement) CrashDevice(p *sim.Proc, d int) error {
	type hit struct {
		g  *Group
		sh *serve.Shard
		// solo: the group has no other member as the crash begins, so it
		// serves nothing meanwhile and there is nothing to resync — sync
		// hands the reopened replica back as it is. At R=1 the volatile-ack
		// loss is the device's own durability trap (E7), not replication's.
		solo bool
	}
	var hits []hit
	for _, g := range pl.groups {
		for _, sh := range g.replicas {
			if sh.DeviceIndex() != d {
				continue
			}
			if g.mig != nil {
				return fmt.Errorf("place: group %d is mid-migration; crash of device %d unsupported until it settles", g.idx, d)
			}
			hits = append(hits, hit{g, sh, len(g.replicas) == 1})
			break
		}
	}
	for _, h := range hits {
		h.g.dropReplica(h.sh)
		h.g.mig = &migration{dst: h.sh, dirty: map[string]struct{}{}}
	}
	if err := pl.fab.CrashDevice(p, d); err != nil {
		// A shard that did not reopen cannot serve again: the hit
		// replicas retire and their groups run on the survivors.
		for _, h := range hits {
			pl.fab.Retire(h.sh)
			h.g.settle(p.Now())
		}
		return err
	}
	var errs error
	for _, h := range hits {
		_, err := pl.sync(p, h.g, nil, true)
		switch {
		case err == nil:
			pl.repled.CrashResyncs++
		case !h.solo:
			pl.repled.RepairsAborted++
			pl.event(p, obs.EventRepairAbort, h.g, fmt.Sprintf(
				"resync of %s after device %d crash abandoned; group stays at %d replica(s)",
				h.sh.Name(), d, len(h.g.replicas)))
			errs = errors.Join(errs, fmt.Errorf("place: resync shard %s after device %d crash: %w", h.sh.Name(), d, err))
		}
	}
	return errs
}

// devScore is one device's health as the steering and destination
// policies see it, compared lexicographically: chips currently
// garbage-collecting (the live relocation traffic reads would queue
// behind), then reported reclamation urgency (collection about to
// start), then observed read service time (the slow-aging signal).
type devScore struct {
	chips   int
	urgency int
	svc     float64
}

func (a devScore) less(b devScore) bool {
	if a.chips != b.chips {
		return a.chips < b.chips
	}
	if a.urgency != b.urgency {
		return a.urgency < b.urgency
	}
	return a.svc < b.svc
}

// deviceScore reads device d's current health signals: the GC activity
// its scheduler was notified of, the urgency its FTL reports and, on a
// calibrated stack, the observed read service time. An uncalibrated
// stack has no estimator and scores zero there, so steering degrades
// toward round-robin as the fabric gets blinder.
func (pl *Placement) deviceScore(d int) devScore {
	s := devScore{
		chips:   pl.fab.Scheduler(d).GCActiveChips(),
		urgency: int(pl.fab.Device(d).Peer().GCUrgency()),
	}
	if est := pl.fab.Stack(d).ServiceEstimator(); est != nil {
		s.svc = est.EWMA(blockdev.SvcRead)
	}
	return s
}
