package experiments

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/ftl"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// E17GCCoordination measures the host→device half of the peer
// interface: the serving fabric leasing GC deferrals from its devices
// while latency-class work is queued. E15 built the device→host half
// (GC-activity notifications steering the host scheduler around
// relocation traffic); here the host steers the relocation traffic
// itself — background GC is parked during latency bursts, bounded by
// each device's free-pool floor, and released (or forced by the floor)
// when the burst drains or the headroom runs out. The same fabric runs
// the same overload mix with coordination off and on, across 1/4/16
// shards and all three stack modes; the coordination ledger
// (defer/renewal/floor-hit counters and the minimum observed headroom)
// proves the mechanism engaged and the floor held.
func E17GCCoordination(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E17",
		Title: "host→device GC coordination — shaping device GC around latency bursts",
		Claim: "once the device's GC is controllable, the host can park background collection during latency-sensitive bursts (bounded by the device's free-pool floor) and cut the served tail latency and deadline-miss rate that device-timed GC inflicts",
	}
	t := metrics.NewTable("Served latency and deadline misses: GC coordination off vs on (MixedRW overload)",
		"stack", "shards",
		"ls p50 off (µs)", "ls p50 on (µs)",
		"ls p99 off (µs)", "ls p99 on (µs)",
		"miss% off", "miss% on",
		"defers", "renewals", "floor hits", "min headroom (pg)")

	modes := []blockdev.Mode{blockdev.SingleQueue, blockdev.MultiQueue, blockdev.Direct}
	shardCounts := []int{1, 4, 16}

	// Headline metrics: the best 16-shard improvement across stacks, and
	// the ledger proving engagement and floor safety on every on-run.
	bestGain, bestMissOff, bestMissOn := 0.0, 0.0, 0.0
	bestMode := ""
	total16 := metrics.NewGCCoord()
	var show [2]*gcCoordRun // MultiQueue 16 shards, off and on

	for _, mode := range modes {
		for _, n := range shardCounts {
			off, err := runGCCoordConfig(scale, mode, n, false)
			if err != nil {
				return nil, err
			}
			on, err := runGCCoordConfig(scale, mode, n, true)
			if err != nil {
				return nil, err
			}
			offTot, onTot := off.totals, on.totals
			t.AddRow(mode.String(), n,
				us(off.lsP50), us(on.lsP50),
				us(off.lsP99), us(on.lsP99),
				fmt.Sprintf("%.1f", 100*offTot.MissRate()), fmt.Sprintf("%.1f", 100*onTot.MissRate()),
				on.coord.Defers, on.coord.Renewals, on.coord.FloorHits, on.coord.MinHeadroomPages)
			if n == 16 {
				total16.Add(on.coord)
				gain := float64(off.lsP99) / float64(on.lsP99)
				if gain > bestGain {
					bestGain = gain
					bestMode = mode.String()
					bestMissOff, bestMissOn = offTot.MissRate(), onTot.MissRate()
				}
				if mode == blockdev.MultiQueue {
					show[0], show[1] = off, on
				}
			}
		}
	}
	res.Tables = append(res.Tables, t)
	if show[1] != nil {
		res.Tables = append(res.Tables,
			show[1].coord.Table("Coordination ledger: MultiQueue, 16 shards, coordination on"),
			show[0].lat.Table("Per-tenant served latency: MultiQueue, 16 shards, coordination off"),
			show[1].lat.Table("Per-tenant served latency: MultiQueue, 16 shards, coordination on"))
	}
	res.Finding = fmt.Sprintf(
		"at 16 shards coordination cuts the latency tenant's p99 up to %.2fx (%s: miss rate %.0f%%→%.0f%%); across the 16-shard runs the devices granted %d deferral sessions (+%d renewals), the floor forced %d collections, and headroom never dropped below %d pages — the floor held",
		bestGain, bestMode, 100*bestMissOff, 100*bestMissOn,
		total16.Defers, total16.Renewals, total16.FloorHits, total16.MinHeadroomPages)
	res.Headline = map[string]float64{
		"best_p99_gain_16":      bestGain,
		"best_miss_pct_off_16":  100 * bestMissOff,
		"best_miss_pct_on_16":   100 * bestMissOn,
		"defers_16":             float64(total16.Defers),
		"floor_hits_16":         float64(total16.FloorHits),
		"min_headroom_pages_16": float64(total16.MinHeadroomPages),
	}
	return res, nil
}

// gcCoordRun is one fabric configuration's measured outcome.
type gcCoordRun struct {
	fab          *serve.Fabric
	totals       metrics.ShardCounters
	lat          *metrics.TenantLatencies
	coord        metrics.GCCoord
	lsP50, lsP99 int64
}

// runGCCoordConfig builds one always-scheduled, admission-controlled
// fabric, preloads and churns it until device GC is live, then replays
// the MixedRW overload mix with host→device GC coordination off or on.
func runGCCoordConfig(scale Scale, mode blockdev.Mode, shards int, coord bool) (*gcCoordRun, error) {
	eng := sim.NewEngine()
	// A deliberately small fabric so churn reaches GC steady state in a
	// few passes (a big device would never collect inside the window).
	opts := ssd.Options{Channels: 2, ChipsPerChannel: scale.pick(2, 4),
		BlocksPerPlane: scale.pick(24, 32), PagesPerBlock: scale.pick(16, 32)}
	// Unbuffered flash: every WAL and checkpoint write programs real
	// pages, so churn actually drains the free pools and the window runs
	// with GC live — the interference a write cache would only postpone
	// (the same reason E15 measures against Enterprise2012Unbuffered).
	opts.BufferPages = -1
	// Raise the low watermark (widening the deferrable headroom above
	// the floor, which stays at the GC reserve — deferral can never eat
	// the blocks cleaning needs) and keep the high watermark close, so
	// at steady state the window's own writes keep re-triggering GC:
	// exactly the background traffic coordination exists to shape.
	opts.GCLowWater = scale.pick(6, 8)
	opts.GCHighWater = scale.pick(8, 10)
	cfg := serve.Config{
		Shards:        shards,
		Mode:          mode,
		DeviceOptions: opts,
		Scheduled:     true,
		Sched:         sched.Config{GCCoordinate: coord},
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
	run := &gcCoordRun{lat: metrics.NewTenantLatencies()}
	var window sim.Time
	var ferr error
	eng.Go(func(p *sim.Proc) {
		f, err := serve.New(p, eng, cfg)
		if err != nil {
			ferr = err
			return
		}
		fe := serve.NewFrontend(f, int64(shards*scale.pick(320, 480)), 48)
		fe.ScanLimit = 16
		if err := fe.Preload(p); err != nil {
			ferr = err
			return
		}
		// Churn until every device is properly aged — cumulative GC
		// erases of at least half the block population, i.e. the free
		// pools cycle at the watermarks continuously — so the window runs
		// against live garbage collection: the steady state of a served
		// device, and the only state with anything to coordinate.
		for r := 0; r < 40 && !gcAged(f); r++ {
			if err := fe.Churn(p, 1); err != nil {
				ferr = err
				return
			}
		}
		f.ResetStats()
		window = sim.Time(scale.pick(40, 80)) * sim.Millisecond
		horizon := p.Now() + window
		if err := fe.Drive(overloadSpecs(workload.MixedRWMix(), shards), horizon, run.lat); err != nil {
			ferr = err
			return
		}
		f.StopAt(horizon, false)
		run.fab = f
	})
	eng.Run()
	if ferr != nil {
		return nil, ferr
	}
	run.totals = run.fab.Stats().Totals()
	run.coord = run.fab.GCCoord()
	h := run.lat.Hist("point-reads")
	run.lsP50, run.lsP99 = h.P50(), h.P99()
	return run, nil
}

// gcAged reports whether every device in the fabric is at GC steady
// state: cumulative GC erases of at least half its block population,
// which means the free pools are cycling at the watermarks and any
// further write pressure runs concurrently with collection.
func gcAged(f *serve.Fabric) bool {
	for d := 0; d < f.Devices(); d++ {
		dev, ok := f.Stack(d).Device().(*ssd.Device)
		if !ok {
			continue
		}
		pf, ok := dev.FTL().(*ftl.PageFTL)
		if !ok {
			continue
		}
		if pf.Stats().GCErases < pf.Array().TotalBlocks()/2 {
			return false
		}
	}
	return true
}
