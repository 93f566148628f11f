package experiments

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// E19ReplicatedPlacement measures the placement layer (internal/place):
// the first subsystem where the peer interface's device→host signals
// choose *where* I/O goes, not just when. Part one compares single
// placement (every logical shard on exactly one of two devices — the
// E17 fabric) against replicated placement (every shard on both
// devices, writes quorum-committed, reads steered per request to the
// device currently reporting the least GC activity) on aged devices
// under the MixedRW overload, across 1/4/16 shards and all three stack
// modes. Part two exercises the other half of placement flexibility:
// a device's service times drift mid-run, the estimator's drift alarm
// trips, and place.Mover performs live shard migrations to a spare
// device while writers and readers stay on — verified afterwards by
// reading every key back from every replica against the client-side
// ledger of acknowledged writes.
func E19ReplicatedPlacement(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E19",
		Title: "replicated placement & GC-steered reads + drift-triggered live migration",
		Claim: "placement flexibility behind the storage interface turns device telemetry into tail wins: a read that can choose between two replicas avoids the collecting device instead of waiting it out, and a shard can leave an aging device while serving, losing nothing",
	}
	t := metrics.NewTable("Single vs replicated placement (read fan-out over ingest trickle, aged devices, reads GC-steered)",
		"stack", "shards",
		"ls p50 sgl (µs)", "ls p50 rep (µs)",
		"ls p99 sgl (µs)", "ls p99 rep (µs)",
		"miss% sgl", "miss% rep",
		"steered", "gc-avoided", "tie")

	modes := []blockdev.Mode{blockdev.SingleQueue, blockdev.MultiQueue, blockdev.Direct}
	shardCounts := []int{1, 4, 16}

	res.Headline = map[string]float64{}
	better16 := 0
	var avoided16, steered16 int64
	var show [2]*placeRun // MultiQueue, 16 shards

	for _, mode := range modes {
		for _, n := range shardCounts {
			single, err := runPlaceConfig(scale, mode, n, false)
			if err != nil {
				return nil, err
			}
			repl, err := runPlaceConfig(scale, mode, n, true)
			if err != nil {
				return nil, err
			}
			t.AddRow(mode.String(), n,
				us(single.lsP50), us(repl.lsP50),
				us(single.lsP99), us(repl.lsP99),
				fmt.Sprintf("%.1f", 100*single.totals.MissRate()),
				fmt.Sprintf("%.1f", 100*repl.totals.MissRate()),
				repl.ledger.SteeredReads, repl.ledger.AvoidedGC, repl.ledger.TieReads)
			if n == 16 {
				if repl.lsP99 < single.lsP99 {
					better16++
				}
				avoided16 += repl.ledger.AvoidedGC
				steered16 += repl.ledger.SteeredReads
				res.Headline["ls_p99_us_single_"+mode.String()] = float64(single.lsP99) / 1e3
				res.Headline["ls_p99_us_replicated_"+mode.String()] = float64(repl.lsP99) / 1e3
				if mode == blockdev.MultiQueue {
					show[0], show[1] = single, repl
				}
			}
		}
	}
	res.Headline["stacks_better_16"] = float64(better16)
	res.Headline["steered_reads_16_total"] = float64(steered16)
	res.Headline["gc_avoided_reads_16_total"] = float64(avoided16)

	mig, err := runMigrationDemo(scale)
	if err != nil {
		return nil, err
	}
	res.Headline["migrations"] = float64(mig.ledger.Migrations)
	res.Headline["drift_trips"] = float64(mig.ledger.DriftTrips)
	res.Headline["migration_bulk_keys"] = float64(mig.ledger.CopiedKeys)
	res.Headline["migration_delta_keys"] = float64(mig.ledger.DeltaKeys)
	res.Headline["lost_acked_writes"] = float64(mig.lost)
	res.Headline["stale_acked_writes"] = float64(mig.stale)
	res.Headline["replicas_on_spare"] = float64(mig.onSpare)

	res.Tables = append(res.Tables, t)
	if show[1] != nil {
		led := show[1].ledger
		res.Tables = append(res.Tables,
			led.Table("Placement ledger: MultiQueue, 16 shards, replicated"),
			show[0].lat.Table("Per-tenant served latency: MultiQueue, 16 shards, single placement"),
			show[1].lat.Table("Per-tenant served latency: MultiQueue, 16 shards, replicated"))
	}
	res.Tables = append(res.Tables,
		mig.ledger.Table("Live migration under load (drift-triggered, MultiQueue, 4 shards + spare)"))
	res.Finding = fmt.Sprintf(
		"at 16 shards GC-steered replicated reads beat single placement's latency-class p99 on %d of 3 stacks (%d reads steered off a collecting device across the 16-shard runs); the drift alarm tripped %d time(s) and %d live migration(s) moved shards to the spare device under load with %d lost and %d stale acknowledged writes on full read-back",
		better16, avoided16, mig.ledger.DriftTrips, mig.ledger.Migrations, mig.lost, mig.stale)
	return res, nil
}

// readFanoutSpecs is the serving pattern replication exists for: a
// latency-sensitive read fan-out that scales with the shard count,
// over a steady ingest trickle that keeps the aged devices' garbage
// collection cycling. Unlike overloadSpecs (which scales the writers
// too), the write side scales with the device fabric, not the shard
// count — the comparison isolates what a per-read choice of replica is
// worth, not what double-writing costs under a write-saturated mix.
func readFanoutSpecs(scale Scale, shards int) []workload.TenantSpec {
	think := 150 * sim.Microsecond / sim.Time(shards)
	if think < 5*sim.Microsecond {
		think = 5 * sim.Microsecond
	}
	return []workload.TenantSpec{
		{Name: "point-reads", LatencySensitive: true, Weight: 6, Pattern: workload.ZR, ThinkTime: think, Seed: 1},
		{Name: "ingest", Weight: 2, Pattern: workload.SW, Depth: 2, Seed: 2},
		{Name: "updater", Weight: 1, Pattern: workload.MIX, Depth: 2, Seed: 3},
	}
}

// placeRun is one steering configuration's measured outcome.
type placeRun struct {
	totals       metrics.ShardCounters
	lat          *metrics.TenantLatencies
	ledger       metrics.PlaceLedger
	lsP50, lsP99 int64
}

// runPlaceConfig builds the E17 fabric over two devices — scheduled,
// admission-controlled, GC-coordinated, aged to GC steady state — and
// replays the MixedRW overload. With replicated set, every logical
// shard gets a replica on both devices behind a place.Placement router;
// otherwise shards split between the devices round-robin (single
// placement: same hardware, no choice per read).
func runPlaceConfig(scale Scale, mode blockdev.Mode, shards int, replicated bool) (*placeRun, error) {
	eng := sim.NewEngine()
	// Two chips per channel at either scale — per-read replica choice
	// matters exactly where a device slice is narrow enough that one
	// collecting chip is a visible share of it (FlexBSO's datacenter
	// slices; at 8+ chips the array hides its own GC below p99). Full
	// scale grows capacity through blocks and pages instead.
	opts := ssd.Options{Channels: 2, ChipsPerChannel: 2,
		BlocksPerPlane: scale.pick(24, 32), PagesPerBlock: scale.pick(16, 32)}
	opts.BufferPages = -1
	opts.GCLowWater = scale.pick(6, 8)
	opts.GCHighWater = scale.pick(8, 10)
	cfg := serve.Config{
		Shards:        shards,
		Devices:       2,
		Mode:          mode,
		DeviceOptions: opts,
		Scheduled:     true,
		Sched:         sched.Config{GCCoordinate: true},
		WriteCost:     16,
		QueueDepth:    4,
		LogPages:      12,
		Store:         kvstore.Config{CacheFrames: 4, CheckpointBytes: 4 << 10},
		Admission: serve.AdmissionConfig{
			Enabled:            true,
			QueueLimit:         12,
			LatencyDeadline:    2 * sim.Millisecond,
			ThroughputDeadline: 20 * sim.Millisecond,
			Rate:               6000,
			Burst:              32,
		},
	}
	if replicated {
		cfg.Replicas = 2
	}
	run := &placeRun{lat: metrics.NewTenantLatencies()}
	var pl *place.Placement
	var ferr error
	eng.Go(func(p *sim.Proc) {
		f, err := serve.New(p, eng, cfg)
		if err != nil {
			ferr = err
			return
		}
		fe := serve.NewFrontend(f, int64(shards*scale.pick(320, 480)), 48)
		fe.ScanLimit = 16
		if replicated {
			if pl, err = place.New(f); err != nil {
				ferr = err
				return
			}
			pl.Attach(fe)
		}
		if err := fe.Preload(p); err != nil {
			ferr = err
			return
		}
		for r := 0; r < 40 && !gcAged(f); r++ {
			if err := fe.Churn(p, 1); err != nil {
				ferr = err
				return
			}
		}
		f.ResetStats()
		window := sim.Time(scale.pick(40, 80)) * sim.Millisecond
		horizon := p.Now() + window
		if err := fe.Drive(readFanoutSpecs(scale, shards), horizon, run.lat); err != nil {
			ferr = err
			return
		}
		f.StopAt(horizon, false)
		run.totals = f.Stats().Totals()
	})
	eng.Run()
	if ferr != nil {
		return nil, ferr
	}
	if pl != nil {
		run.ledger = pl.Ledger()
	}
	h := run.lat.Hist("point-reads")
	run.lsP50, run.lsP99 = h.P50(), h.P99()
	return run, nil
}

// migrationRun is the live-migration demonstration's outcome.
type migrationRun struct {
	ledger      metrics.PlaceLedger
	lost, stale int
	onSpare     int
}

// runMigrationDemo drives a replicated fabric with a spare device
// through a mid-run service-time drift on device 0: writers own
// disjoint key ranges and ledger every acknowledged value, the drift
// alarm trips, the mover migrates the aged device's replicas to the
// spare while serving continues, and afterwards every replica of every
// key is read back against the acknowledgment ledger.
func runMigrationDemo(scale Scale) (*migrationRun, error) {
	eng := sim.NewEngine()
	opts := ssd.Options{Channels: 2, ChipsPerChannel: scale.pick(2, 4),
		BlocksPerPlane: scale.pick(24, 32), PagesPerBlock: scale.pick(16, 32)}
	opts.BufferPages = -1
	cfg := serve.Config{
		Shards:          4,
		Replicas:        2,
		Devices:         2,
		Spares:          1,
		Mode:            blockdev.MultiQueue,
		DeviceOptions:   opts,
		Scheduled:       true,
		WriteCost:       16,
		QueueDepth:      4,
		LogPages:        12,
		Calibrate:       true,
		CalibrateWindow: 5 * sim.Millisecond,
		Store:           kvstore.Config{CacheFrames: 4, CheckpointBytes: 8 << 10},
	}
	keys := int64(scale.pick(512, 1024))
	const writers = 6
	acked := make(map[int64][]byte)
	run := &migrationRun{}
	var pl *place.Placement
	var fe *serve.Frontend
	var fab *serve.Fabric
	var ferr error
	eng.Go(func(p *sim.Proc) {
		f, err := serve.New(p, eng, cfg)
		if err != nil {
			ferr = err
			return
		}
		fab = f
		if pl, err = place.New(f); err != nil {
			ferr = err
			return
		}
		fe = serve.NewFrontend(f, keys, 48)
		pl.Attach(fe)
		if err := fe.Preload(p); err != nil {
			ferr = err
			return
		}
		// The preload's deterministic values are the ledger's seed.
		for i := int64(0); i < keys; i++ {
			v := make([]byte, 48)
			for j := range v {
				v[j] = byte(int64(j) + i)
			}
			acked[i] = v
		}
		pl.StartMover(place.MoverConfig{
			Interval:        250 * sim.Microsecond,
			DriftMinSamples: 12,
			CopyBatch:       16,
		})
		horizon := p.Now() + sim.Time(scale.pick(40, 60))*sim.Millisecond
		eng.Schedule(p.Now()+10*sim.Millisecond, func() {
			if dev, ok := f.Stack(0).Device().(*ssd.Device); ok {
				dev.AgeTiming(3, 3, 2)
			}
		})
		for w := 0; w < writers; w++ {
			w := w
			eng.Go(func(p *sim.Proc) {
				seq := 0
				for p.Now() < horizon {
					k := int64(w) + writers*int64(seq%(int(keys)/writers))
					v := []byte(fmt.Sprintf("w%d-s%d", w, seq))
					seq++
					if err := fe.Put(p, k, v); err == nil {
						acked[k] = v
					} else {
						p.Sleep(50 * sim.Microsecond)
					}
				}
			})
		}
		for r := 0; r < 2; r++ {
			eng.Go(func(p *sim.Proc) {
				for i := int64(0); p.Now() < horizon; i++ {
					if err := fe.Get(p, (i*61)%keys); err != nil {
						p.Sleep(50 * sim.Microsecond)
					}
				}
			})
		}
		// Leave room after the horizon for in-flight migrations to
		// finish: bulk-copying onto fresh unbuffered flash pays real
		// program latency for every page.
		f.StopAt(horizon+sim.Time(scale.pick(160, 240))*sim.Millisecond, true)
	})
	eng.Run()
	if ferr != nil {
		return nil, ferr
	}
	run.ledger = pl.Ledger()
	for _, g := range pl.Groups() {
		for _, sh := range g.Replicas() {
			if sh.DeviceIndex() >= fab.PlacedDevices() {
				run.onSpare++
			}
		}
	}
	// Read-back: every replica of every key's group must hold exactly
	// the last acknowledged value — zero lost, zero stale.
	eng.Go(func(p *sim.Proc) {
		for i := int64(0); i < keys; i++ {
			key := fe.Key(i)
			for _, sys := range fe.TargetFor(key).Systems() {
				got, err := sys.Store.Get(p, key)
				if err != nil {
					run.lost++
					continue
				}
				if string(got) != string(acked[i]) {
					run.stale++
				}
			}
		}
	})
	eng.Run()
	return run, nil
}
