package experiments

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/obs"
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
// collecting chip") instead of a bare number. That tracing charges no
// simulated time is not re-measured here: TestTelemetryChargesNoVirtualTime
// runs this sweep's 16-shard cases with telemetry on and off and
// requires identical virtual-time results.
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
		"gc-hits")

	res.Headline = map[string]float64{}
	var worstP50, worstP99 float64
	var leaks, overruns int64
	// closed counts the configurations whose span p50 and p99 both sit
	// within closureTolPct of the client's.
	closed := 0
	var show *fabricRun // MultiQueue at 16 shards

	for _, mode := range stackModes {
		for _, n := range shardCounts {
			run, err := runFabric(scale, obsCase(scale, mode, n))
			if err != nil {
				return nil, err
			}
			tr := run.fab.Tracer()
			clientH := run.ls()
			spanH := tr.TotalHist("latency")
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
			if dP50 <= closureTolPct && dP99 <= closureTolPct {
				closed++
			}
			leaks += tr.Opened() - tr.Closed()
			overruns += tr.Overruns()

			rec, _ := tr.AtQuantile("latency", 0.99)
			attr.AddRow(mode.String(), n,
				us(clientH.P99()), us(spanH.P99()),
				fmt.Sprintf("%.2f", dP50), fmt.Sprintf("%.2f", dP99),
				fmt.Sprintf("%.0f", rec.StagePct(obs.StageAdmission)),
				fmt.Sprintf("%.0f", rec.StagePct(obs.StageSched)),
				fmt.Sprintf("%.0f", rec.StagePct(obs.StageDevice)),
				fmt.Sprintf("%.0f", rec.StagePct(obs.StageServe)),
				rec.GCCollisions)

			if mode == blockdev.MultiQueue && n == 16 {
				show = run
			}
		}
	}

	res.Headline["closure_err_p50_max_pct"] = worstP50
	res.Headline["closure_err_p99_max_pct"] = worstP99
	res.Headline["closed_configs"] = float64(closed)
	res.Headline["span_leaks"] = float64(leaks)
	res.Headline["span_overruns"] = float64(overruns)
	tr := show.fab.Tracer()
	res.Headline["mq16_span_p99_us"] = float64(tr.TotalHist("latency").P99()) / 1e3
	res.Headline["mq16_sched_share_pct"] = tr.StageShare("latency", obs.StageSched)
	res.Headline["mq16_device_share_pct"] = tr.StageShare("latency", obs.StageDevice)
	res.Headline["mq16_gc_collisions"] = float64(tr.Snapshot().Classes[0].GCCollisions)

	// The unified telemetry snapshot of the showcase run — every ledger
	// the stack keeps, merged into one exportable document (deathbench
	// -obs writes it per experiment).
	res.Obs = show.fab.Registry().Export()
	res.Tables = append(res.Tables, attr,
		tr.BreakdownTable("per-class × per-stage breakdown (MultiQueue, 16 shards)"))
	res.Finding = fmt.Sprintf(
		"span accounting closes within %.0f%% at p50 and p99 on %d of %d stack×shard configurations (worst p50 delta %.2f%%, worst p99 delta %.2f%%, %d leaked and %d over-counted spans), and tracing charges no virtual time (TestTelemetryChargesNoVirtualTime); the MultiQueue/16 p99 explains itself as: %s",
		closureTolPct, closed, attr.Rows(), worstP50, worstP99, leaks, overruns, tr.Explain("latency"))
	return res, nil
}

// closureTolPct is how far, in percent, a configuration's span-measured
// p50 and p99 may sit from the client-measured ones and still count as
// closed.
const closureTolPct = 5.0

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

// obsCase is the E19 single-placement fabric (two aged devices,
// GC-coordinated, read fan-out) with telemetry on.
func obsCase(scale Scale, mode blockdev.Mode, shards int) fabricCase {
	cfg := fabricConfig(mode, shards, agedOptions(scale, 2))
	cfg.Devices = 2
	cfg.Sched.GCCoordinate = true
	cfg.Telemetry = true
	return fabricCase{
		cfg:    cfg,
		aged:   true,
		specs:  readFanoutSpecs(shards),
		window: scale.ms(40, 80),
	}
}
