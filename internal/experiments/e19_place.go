package experiments

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/place"
	"repro/internal/sim"
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
		"resident", "steered", "gc-avoided", "tie")

	res.Headline = map[string]float64{}
	better16 := 0
	var resident16, steered16, avoided16, tie16 int64
	var show [2]*fabricRun // MultiQueue, 16 shards

	for _, mode := range stackModes {
		for _, n := range shardCounts {
			single, err := runPlaceConfig(scale, mode, n, false)
			if err != nil {
				return nil, err
			}
			repl, err := runPlaceConfig(scale, mode, n, true)
			if err != nil {
				return nil, err
			}
			sglP99, repP99 := single.ls().P99(), repl.ls().P99()
			led := repl.pl.Ledger()
			t.AddRow(mode.String(), n,
				us(single.ls().P50()), us(repl.ls().P50()),
				us(sglP99), us(repP99),
				fmt.Sprintf("%.1f", 100*single.totals.MissRate()),
				fmt.Sprintf("%.1f", 100*repl.totals.MissRate()),
				led.ResidentReads, led.SteeredReads, led.AvoidedGC, led.TieReads)
			if n == 16 {
				if repP99 < sglP99 {
					better16++
				}
				resident16 += led.ResidentReads
				avoided16 += led.AvoidedGC
				steered16 += led.SteeredReads
				tie16 += led.TieReads
				res.Headline["ls_p99_us_single_"+mode.String()] = float64(sglP99) / 1e3
				res.Headline["ls_p99_us_replicated_"+mode.String()] = float64(repP99) / 1e3
				if mode == blockdev.MultiQueue {
					show[0], show[1] = single, repl
				}
			}
		}
	}
	res.Headline["stacks_better_16"] = float64(better16)
	res.Headline["resident_reads_16_total"] = float64(resident16)
	res.Headline["steered_reads_16_total"] = float64(steered16)
	res.Headline["gc_avoided_reads_16_total"] = float64(avoided16)

	mig, err := runMigrationDemo(scale)
	if err != nil {
		return nil, err
	}
	migLed := mig.pl.Ledger()
	onSpare := 0
	for _, g := range mig.pl.Groups() {
		for _, sh := range g.Replicas() {
			if sh.DeviceIndex() >= mig.fab.PlacedDevices() {
				onSpare++
			}
		}
	}
	res.Headline["migrations"] = float64(migLed.Migrations)
	res.Headline["drift_trips"] = float64(migLed.DriftTrips)
	res.Headline["migration_bulk_keys"] = float64(migLed.CopiedKeys)
	res.Headline["migration_delta_keys"] = float64(migLed.DeltaKeys)
	res.Headline["lost_acked_writes"] = float64(mig.lost)
	res.Headline["stale_acked_writes"] = float64(mig.stale)
	res.Headline["replicas_on_spare"] = float64(onSpare)

	res.Tables = append(res.Tables, t)
	if show[1] != nil {
		led := show[1].pl.Ledger()
		res.Tables = append(res.Tables,
			led.Table("Placement ledger: MultiQueue, 16 shards, replicated"),
			show[0].lat.Table("Per-tenant served latency: MultiQueue, 16 shards, single placement"),
			show[1].lat.Table("Per-tenant served latency: MultiQueue, 16 shards, replicated"))
	}
	res.Tables = append(res.Tables,
		migLed.Table("Live migration under load (drift-triggered, MultiQueue, 4 shards + spare)"))
	res.Finding = fmt.Sprintf(
		"at 16 shards replicated reads beat single placement's latency-class p99 on %d of 3 stacks through two host choices: %d reads went to a replica that already held them in memory, and of the %d that had to reach a device, %d were steered off a collecting one (across the 16-shard runs); the drift alarm tripped %d time(s) and %d live migration(s) moved shards to the spare device under load with %d lost and %d stale acknowledged writes on full read-back",
		better16, resident16, steered16+tie16, avoided16, migLed.DriftTrips, migLed.Migrations, mig.lost, mig.stale)
	return res, nil
}

// readFanoutSpecs is the serving pattern replication exists for: a
// latency-sensitive read fan-out that scales with the shard count,
// over a steady ingest trickle that keeps the aged devices' garbage
// collection cycling. Unlike overloadSpecs (which scales the writers
// too), the write side scales with the device fabric, not the shard
// count — the comparison isolates what a per-read choice of replica is
// worth, not what double-writing costs under a write-saturated mix.
func readFanoutSpecs(shards int) []workload.TenantSpec {
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

// runPlaceConfig runs the E17 fabric (GC-coordinated, aged) over two
// devices under the read fan-out. With replicated set, every logical
// shard gets a replica on both devices behind a place.Placement router;
// otherwise shards split between the devices round-robin (single
// placement: same hardware, no choice per read).
func runPlaceConfig(scale Scale, mode blockdev.Mode, shards int, replicated bool) (*fabricRun, error) {
	// Two chips per channel at either scale — per-read replica choice
	// matters exactly where a device slice is narrow enough that one
	// collecting chip is a visible share of it (FlexBSO's datacenter
	// slices; at 8+ chips the array hides its own GC below p99). Full
	// scale grows capacity through blocks and pages instead.
	cfg := fabricConfig(mode, shards, agedOptions(scale, 2))
	cfg.Devices = 2
	cfg.Sched.GCCoordinate = true
	return runFabric(scale, fabricCase{
		cfg:        cfg,
		replicated: replicated,
		aged:       true,
		specs:      readFanoutSpecs(shards),
		window:     scale.ms(40, 80),
	})
}

// runMigrationDemo drives a replicated fabric with a spare device
// through a mid-run service-time drift on device 0: the drift alarm
// trips and the mover migrates the aged device's replicas to the spare
// while the ledgered writers and readers stay on.
func runMigrationDemo(scale Scale) (*ledgerRun, error) {
	cfg := ledgerConfig(scale, blockdev.MultiQueue, 4)
	cfg.CalibrateWindow = 5 * sim.Millisecond
	return runLedgered(scale, cfg, place.MoverConfig{
		Interval:        250 * sim.Microsecond,
		DriftMinSamples: 12,
	}, func(r *fabricRun) error {
		r.eng.Schedule(r.start+10*sim.Millisecond, func() { r.fab.Device(0).AgeTiming(3, 3, 2) })
		return nil
	})
}
