package experiments

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// E20Observability measures the observability spine itself (package
// obs): per-request spans threaded from the frontend through
// admission, the DRR scheduler, the block layer and the device, on all
// three stack modes at 1/4/16 shards over aged (GC-cycling) devices.
// It verifies that span accounting closes — the span-measured
// end-to-end latency matches the client-observed latency at p50 and
// p99, no span leaks open, and no span's stages over-count its life —
// then uses the flight recorder to *explain* each configuration's p99
// as a stage attribution ("71% sched queue, 22% device service on a
// collecting chip") instead of a bare number. A tracing-overhead check
// (spans on vs off at 16 shards) shows the layer is safe to leave on:
// tracing is pure host-side bookkeeping and charges no simulated time.
func E20Observability(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E20",
		Title: "end-to-end request tracing: per-stage tail-latency attribution",
		Claim: "owning every layer makes tail latency explainable: each request's life decomposes exactly into frontend, admission, scheduler, device and serve stages, with GC interference annotated per I/O — the block interface's 'random device slowness' becomes a named stage with a named cause",
	}

	attr := metrics.NewTable("p99 stage attribution (latency class, aged devices, GC-coordinated)",
		"stack", "shards",
		"client p99 (µs)", "span p99 (µs)", "Δp50 %", "Δp99 %",
		"adm %", "sched %", "dev %", "serve %",
		"gc-hits", "tok-blk (µs)")

	modes := []blockdev.Mode{blockdev.SingleQueue, blockdev.MultiQueue, blockdev.Direct}
	shardCounts := []int{1, 4, 16}

	res.Headline = map[string]float64{}
	var worstP50, worstP99 float64
	var leaks, overruns int64
	var show *obsRun // MultiQueue, 16 shards

	for _, mode := range modes {
		for _, n := range shardCounts {
			run, err := runObsConfig(scale, mode, n, true)
			if err != nil {
				return nil, err
			}
			clientH := run.lat.Hist("point-reads")
			spanH := run.tr.TotalHist("latency")
			if spanH == nil || spanH.Count() == 0 {
				return nil, fmt.Errorf("e20: no latency-class spans traced (%s, %d shards)", mode, n)
			}
			dP50 := pctErr(spanH.P50(), clientH.P50())
			dP99 := pctErr(spanH.P99(), clientH.P99())
			if dP50 > worstP50 {
				worstP50 = dP50
			}
			if dP99 > worstP99 {
				worstP99 = dP99
			}
			leaks += run.tr.Opened() - run.tr.Closed()
			overruns += run.tr.Overruns()

			rec, _ := run.tr.AtQuantile("latency", 0.99)
			attr.AddRow(mode.String(), n,
				us(clientH.P99()), us(spanH.P99()),
				fmt.Sprintf("%.2f", dP50), fmt.Sprintf("%.2f", dP99),
				fmt.Sprintf("%.0f", rec.StagePct(obs.StageAdmission)),
				fmt.Sprintf("%.0f", rec.StagePct(obs.StageSched)),
				fmt.Sprintf("%.0f", rec.StagePct(obs.StageDevice)),
				fmt.Sprintf("%.0f", rec.StagePct(obs.StageServe)),
				rec.GCCollisions, us(int64(rec.TokensBlocked)))

			if mode == blockdev.MultiQueue && n == 16 {
				show = run
			}
		}
	}

	// Overhead check: the same 16-shard fabric with tracing off. Spans
	// are host-side bookkeeping off the virtual clock, so served counts
	// should match exactly — the check proves tracing perturbs nothing.
	over := metrics.NewTable("tracing overhead (16 shards, spans on vs off)",
		"stack", "served traced", "served plain", "overhead %")
	var worstOverhead float64
	for _, mode := range modes {
		traced, err := runObsConfig(scale, mode, 16, true)
		if err != nil {
			return nil, err
		}
		plain, err := runObsConfig(scale, mode, 16, false)
		if err != nil {
			return nil, err
		}
		overhead := 0.0
		if plain.totals.Served > 0 {
			overhead = 100 * float64(plain.totals.Served-traced.totals.Served) / float64(plain.totals.Served)
		}
		if overhead > worstOverhead {
			worstOverhead = overhead
		}
		over.AddRow(mode.String(), traced.totals.Served, plain.totals.Served,
			fmt.Sprintf("%.2f", overhead))
	}

	res.Headline["closure_err_p50_max_pct"] = worstP50
	res.Headline["closure_err_p99_max_pct"] = worstP99
	res.Headline["span_leaks"] = float64(leaks)
	res.Headline["span_overruns"] = float64(overruns)
	res.Headline["overhead_pct_max"] = worstOverhead
	if show != nil {
		res.Headline["mq16_span_p99_us"] = float64(show.tr.TotalHist("latency").P99()) / 1e3
		res.Headline["mq16_sched_share_pct"] = show.tr.StageShare("latency", obs.StageSched)
		res.Headline["mq16_device_share_pct"] = show.tr.StageShare("latency", obs.StageDevice)
		res.Headline["mq16_gc_collisions"] = float64(show.tr.Snapshot().Classes[0].GCCollisions)
	}

	res.Tables = append(res.Tables, attr)
	if show != nil {
		res.Tables = append(res.Tables,
			show.tr.BreakdownTable("per-class × per-stage breakdown (MultiQueue, 16 shards)"),
			over)
		// The unified telemetry snapshot of the showcase run — every
		// ledger the stack keeps, merged into one exportable document
		// (deathbench -obs writes it per experiment).
		res.Obs = show.reg.Export()
	} else {
		res.Tables = append(res.Tables, over)
	}

	explain := ""
	if show != nil {
		explain = show.tr.Explain("latency")
	}
	res.Finding = fmt.Sprintf(
		"span accounting closes on all 9 stack×shard configurations (worst p50 delta %.2f%%, worst p99 delta %.2f%%, %d leaked and %d over-counted spans) and tracing costs %.2f%% ops at 16 shards; the MultiQueue/16 p99 explains itself as: %s",
		worstP50, worstP99, leaks, overruns, worstOverhead, explain)
	return res, nil
}

// pctErr is |a-b| as a percentage of b (0 when b is 0).
func pctErr(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return 100 * float64(d) / float64(b)
}

// obsRun is one traced configuration's measured outcome.
type obsRun struct {
	totals metrics.ShardCounters
	lat    *metrics.TenantLatencies
	tr     *obs.Tracer
	reg    *obs.Registry
}

// runObsConfig builds the E17/E19 serving fabric over two aged devices
// — scheduled, admission-controlled, GC-coordinated — with tracing on
// or off, and replays the read-fan-out mix.
func runObsConfig(scale Scale, mode blockdev.Mode, shards int, trace bool) (*obsRun, error) {
	eng := sim.NewEngine()
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
		Trace:     trace,
		TraceKeep: 32,
	}
	run := &obsRun{lat: metrics.NewTenantLatencies()}
	var fab *serve.Fabric
	var ferr error
	eng.Go(func(p *sim.Proc) {
		f, err := serve.New(p, eng, cfg)
		if err != nil {
			ferr = err
			return
		}
		fab = f
		run.tr = f.Tracer()
		run.reg = f.Registry()
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
		if err := fe.Drive(readFanoutSpecs(scale, shards), horizon, run.lat); err != nil {
			ferr = err
			return
		}
		f.StopAt(horizon, false)
	})
	eng.Run()
	if ferr != nil {
		return nil, ferr
	}
	run.totals = fab.Stats().Totals()
	return run, nil
}
