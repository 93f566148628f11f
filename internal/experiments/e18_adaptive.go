package experiments

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// E18AdaptiveControlPlane measures the adaptive control plane against
// the static one on devices that age mid-run. PRs 1–3 built the peer
// interface but left every policy knob a constant: DRR write billing,
// admission deadlines, GC lease slices, worker pools — all calibrated
// once, by hand, against a device that then changes under them. Here
// the same overload mix runs twice per configuration: once with the
// static constants, once with the feedback spine (metrics.Estimator)
// closed around four layers — blockdev calibrating read/write costs
// from observed service times, serve deriving deadlines and early
// drops from the observed distribution plus an SLO controller walking
// workers and admission rates, and sched sizing GC leases by reported
// urgency. Halfway through the window every device's programs slow
// 2.5× (wear-induced service-time drift): the static plane keeps
// billing and promising yesterday's numbers, the adaptive plane
// follows the device it can actually observe.
func E18AdaptiveControlPlane(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E18",
		Title: "adaptive control plane — observed-service-time feedback vs static constants on aging devices",
		Claim: "policy constants calibrated against a fresh device go stale as the device ages; a host that measures service times can recalibrate billing, deadlines, admission and GC leases online, holding the latency tail at or below the static plane's while tracking the device's true costs",
	}
	t := metrics.NewTable("Static vs adaptive control plane (MixedRW overload, devices age at half-window)",
		"stack", "shards",
		"ls p50 st (µs)", "ls p50 ad (µs)",
		"ls p99 st (µs)", "ls p99 ad (µs)",
		"miss% st", "miss% ad", "edrops",
		"cal w:r", "true w:r", "workers", "walks (tail)")

	modes := []blockdev.Mode{blockdev.SingleQueue, blockdev.MultiQueue, blockdev.Direct}
	shardCounts := []int{1, 4, 16}

	res.Headline = map[string]float64{}
	atOrBetter16 := 0
	worstRatioErr := 0.0
	var tailWalks16 int64
	var show [2]*adaptiveRun // MultiQueue, 16 shards

	for _, mode := range modes {
		for _, n := range shardCounts {
			static, err := runAdaptiveConfig(scale, mode, n, false)
			if err != nil {
				return nil, err
			}
			adaptive, err := runAdaptiveConfig(scale, mode, n, true)
			if err != nil {
				return nil, err
			}
			ratioErr := relErr(adaptive.calRatio, adaptive.trueRatio)
			t.AddRow(mode.String(), n,
				us(static.lsP50), us(adaptive.lsP50),
				us(static.lsP99), us(adaptive.lsP99),
				fmt.Sprintf("%.1f", 100*static.totals.MissRate()),
				fmt.Sprintf("%.1f", 100*adaptive.totals.MissRate()),
				adaptive.totals.EarlyDropped,
				fmt.Sprintf("%.1f", adaptive.calRatio),
				fmt.Sprintf("%.1f", adaptive.trueRatio),
				fmt.Sprintf("%d-%d", adaptive.workersLo, adaptive.workersHi),
				fmt.Sprintf("%d (%d)", adaptive.walks, adaptive.tailWalks))
			if n == 16 {
				if adaptive.lsP99 <= static.lsP99 {
					atOrBetter16++
				}
				if ratioErr > worstRatioErr {
					worstRatioErr = ratioErr
				}
				tailWalks16 += adaptive.tailWalks
				res.Headline["ls_p99_us_static_"+mode.String()] = float64(static.lsP99) / 1e3
				res.Headline["ls_p99_us_adaptive_"+mode.String()] = float64(adaptive.lsP99) / 1e3
				res.Headline["cal_ratio_"+mode.String()] = adaptive.calRatio
				res.Headline["true_ratio_"+mode.String()] = adaptive.trueRatio
				res.Headline["autoscale_walks_"+mode.String()] = float64(adaptive.walks)
				res.Headline["autoscale_tail_walks_"+mode.String()] = float64(adaptive.tailWalks)
				if mode == blockdev.MultiQueue {
					show[0], show[1] = static, adaptive
				}
			}
		}
	}
	res.Headline["stacks_at_or_better_16"] = float64(atOrBetter16)
	res.Headline["worst_cal_ratio_err_16"] = worstRatioErr
	res.Headline["tail_walks_16_total"] = float64(tailWalks16)

	res.Tables = append(res.Tables, t)
	if show[1] != nil {
		res.Tables = append(res.Tables,
			show[1].scalerTable,
			show[0].lat.Table("Per-tenant served latency: MultiQueue, 16 shards, static plane"),
			show[1].lat.Table("Per-tenant served latency: MultiQueue, 16 shards, adaptive plane"))
	}
	res.Finding = fmt.Sprintf(
		"at 16 shards on mid-run-aging devices the adaptive plane holds or beats the static latency-class p99 on %d of 3 stacks, calibrated write:read billing tracks the device's true post-aging service ratio within %.0f%% worst case, and the SLO controller converges (%d total walks in the final quarter across the 16-shard runs)",
		atOrBetter16, 100*worstRatioErr, tailWalks16)
	return res, nil
}

// relErr is |got-want|/want (0 when want is 0).
func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

// adaptiveRun is one fabric configuration's measured outcome.
type adaptiveRun struct {
	fab                  *serve.Fabric
	totals               metrics.ShardCounters
	lat                  *metrics.TenantLatencies
	lsP50, lsP99         int64
	calRatio             float64 // write:read DRR billing at window end
	trueRatio            float64 // device-measured post-aging write:read service ratio
	walks, tailWalks     int64
	workersLo, workersHi int
	scalerTable          *metrics.Table
}

// runAdaptiveConfig builds one always-scheduled, admission-controlled,
// GC-coordinated fabric (the full E17 stack — the static baseline is
// everything the previous PRs built), ages it to GC steady state, then
// replays the MixedRW overload with the devices drifting mid-window.
// With adaptive set, the four feedback loops close on top.
func runAdaptiveConfig(scale Scale, mode blockdev.Mode, shards int, adaptive bool) (*adaptiveRun, error) {
	eng := sim.NewEngine()
	// The E17 fabric: small unbuffered devices with widened deferrable
	// headroom, so churn reaches GC steady state inside a few passes and
	// the window runs against live collection.
	opts := ssd.Options{Channels: 2, ChipsPerChannel: scale.pick(2, 4),
		BlocksPerPlane: scale.pick(24, 32), PagesPerBlock: scale.pick(16, 32)}
	opts.BufferPages = -1
	opts.GCLowWater = scale.pick(6, 8)
	opts.GCHighWater = scale.pick(8, 10)
	cfg := serve.Config{
		Shards:        shards,
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
	if adaptive {
		cfg.Calibrate = true
		// The observation window (4 sub-windows) spans one quarter of
		// the measurement window at either scale: long enough that the
		// billing statistic is a stable uniform mean rather than a
		// noisy snapshot, short enough to forget the pre-aging device
		// within half the window — and the same span the ground truth
		// integrates over, so the acceptance comparison is
		// like-for-like.
		cfg.CalibrateWindow = sim.Time(scale.pick(2500, 5000)) * sim.Microsecond
		cfg.Admission.Adaptive = true
		cfg.Sched.GCLeaseAdaptive = true
		cfg.Autoscale = serve.AutoscaleConfig{
			Enabled:    true,
			Interval:   4 * sim.Millisecond,
			MinWorkers: 1,
			MaxWorkers: 4,
		}
	}
	run := &adaptiveRun{lat: metrics.NewTenantLatencies()}
	var walks3q int64
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
		for r := 0; r < 40 && !gcAged(f); r++ {
			if err := fe.Churn(p, 1); err != nil {
				ferr = err
				return
			}
		}
		f.ResetStats()
		window := sim.Time(scale.pick(40, 80)) * sim.Millisecond
		horizon := p.Now() + window
		// Mid-window the devices age: programs slow 2.5×, reads 1.3×,
		// erases 1.6× — wear drift, invisible through the block interface
		// except as service times.
		eng.Schedule(p.Now()+window/2, func() {
			for d := 0; d < f.Devices(); d++ {
				if dev, ok := f.Stack(d).Device().(*ssd.Device); ok {
					dev.AgeTiming(1.3, 2.5, 1.6)
				}
			}
		})
		// At 3/4 window the post-aging transition has settled: device
		// metrics reset here, so the ground-truth service ratio covers
		// the settled aged regime — the same span the calibrator's
		// rolling window sees at run end (judging a settled estimator
		// against the transition burst would compare two different
		// periods, not two different methods). The controller's walk
		// count is captured at the same instant: walks after this point
		// are the oscillation evidence (a converged controller stays
		// quiet through the final quarter).
		eng.Schedule(p.Now()+3*window/4, func() {
			for d := 0; d < f.Devices(); d++ {
				if dev, ok := f.Stack(d).Device().(*ssd.Device); ok {
					dev.Metrics().Reset()
				}
			}
			if a := f.Autoscaler(); a != nil {
				walks3q = a.Walks()
			}
		})
		// Calibration is judged over the settled final quarter, never
		// the post-stop drain: the billing in effect is sampled at
		// regular instants across [3/4·window, window] and averaged —
		// the time-average of what the scheduler actually charged —
		// against the device's own means integrated over the same span
		// (a point snapshot would compare one instant of a moving
		// control loop to a quarter-long truth; a drained fabric would
		// trickle a handful of unrepresentative ops through both).
		var calSum float64
		var calN int
		const calSamples = 8
		for k := 1; k <= calSamples; k++ {
			at := p.Now() + 3*window/4 + sim.Time(k)*(window/4)/calSamples
			eng.Schedule(at, func() {
				for d := 0; d < f.Devices(); d++ {
					r, w := f.Stack(d).CalibratedCosts()
					calSum += float64(w) / float64(r)
					calN++
				}
			})
		}
		eng.Schedule(p.Now()+window, func() {
			if calN > 0 {
				run.calRatio = calSum / float64(calN)
			}
			var truth float64
			devs := 0
			for d := 0; d < f.Devices(); d++ {
				if dev, ok := f.Stack(d).Device().(*ssd.Device); ok {
					m := dev.Metrics()
					rm, wm := m.ReadLat.Mean(), m.WriteLat.Mean()
					if rm > 0 && wm > 0 {
						// Both classes must have settled-quarter samples;
						// a device that served no writes in the quarter
						// has no measurable truth (trueRatio stays 0 and
						// the row is excluded from the tracking check).
						truth += wm / rm
						devs++
					}
				}
			}
			if devs > 0 {
				run.trueRatio = truth / float64(devs)
			}
		})
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
	f := run.fab
	run.totals = f.Stats().Totals()
	h := run.lat.Hist("point-reads")
	run.lsP50, run.lsP99 = h.P50(), h.P99()
	run.workersLo, run.workersHi = f.Config().WorkersPerShard, f.Config().WorkersPerShard
	if a := f.Autoscaler(); a != nil {
		run.walks = a.Walks()
		run.tailWalks = run.walks - walks3q
		run.workersLo, run.workersHi = 1<<30, 0
		for _, sh := range f.Shards() {
			if w := sh.Workers(); w < run.workersLo {
				run.workersLo = w
			}
			if w := sh.Workers(); w > run.workersHi {
				run.workersHi = w
			}
		}
		run.scalerTable = a.Table(fmt.Sprintf(
			"SLO controller end state: %s, %d shards, adaptive plane", mode, shards))
	}
	return run, nil
}
