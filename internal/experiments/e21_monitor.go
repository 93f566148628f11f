package experiments

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// E21ContinuousMonitoring measures the continuous-telemetry layer
// (obs.Sampler + obs.Monitor) on the E18 aging scenario: the adaptive
// fabric runs the MixedRW overload and its devices drift 2.5× slower
// mid-window, but this time nobody reads the answer off a post-run
// table — the monitor has to notice, live, from sampled series alone.
// Two checks per stack mode: the drift alert fires within a bounded
// number of sampling windows of the injected aging (detection
// latency), and the identical run without aging raises no drift alert
// at all (false-positive immunity). That the monitored fabric serves
// exactly what an unmonitored one does is TestTelemetryChargesNoVirtualTime's
// to show: it runs the aged case with telemetry on and off.
func E21ContinuousMonitoring(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E21",
		Title: "continuous monitoring: drift detection latency, false-alert immunity, zero serving overhead",
		Claim: "a host that owns the whole stack can watch it continuously: sampled ledger series plus burn-rate and drift watches turn wear-induced service-time drift — invisible through the block interface — into a typed, explained alert within a handful of sampling windows, at zero virtual-time cost to the serving path (TestTelemetryChargesNoVirtualTime)",
	}

	t := metrics.NewTable("Monitor on the E18 aging scenario (MixedRW overload, devices age 2.5× at half-window)",
		"stack",
		"detect (ticks)", "drift alerts", "false drifts (unaged)",
		"slo burns", "gc storms", "events total")

	res.Headline = map[string]float64{}
	var detectMax float64
	var falseDrifts int64
	var show *fabricRun

	for _, mode := range stackModes {
		aged, err := runFabric(scale, monitorCase(scale, mode, true))
		if err != nil {
			return nil, err
		}
		unaged, err := runFabric(scale, monitorCase(scale, mode, false))
		if err != nil {
			return nil, err
		}

		mon := aged.fab.Monitor()
		detect := aged.detectTicks()
		if detect < 0 {
			return nil, fmt.Errorf("e21: no drift alert fired on aged %s fabric (drift events %d)",
				mode, mon.Count(obs.EventDrift))
		}
		if detect > detectMax {
			detectMax = detect
		}
		falseUnaged := unaged.fab.Monitor().Count(obs.EventDrift)
		falseDrifts += falseUnaged

		events := int64(0)
		for _, n := range mon.Counts() {
			events += n
		}
		t.AddRow(mode.String(),
			fmt.Sprintf("%.0f", detect),
			mon.Count(obs.EventDrift), falseUnaged,
			mon.Count(obs.EventSLOBurn), mon.Count(obs.EventGCStorm),
			events)

		res.Headline["detect_ticks_"+mode.String()] = detect
		if mode == blockdev.MultiQueue {
			show = aged
		}
	}

	res.Headline["detect_ticks_max"] = detectMax
	res.Headline["false_drift_alerts_unaged"] = float64(falseDrifts)

	res.Tables = append(res.Tables, t)
	if show != nil {
		res.Tables = append(res.Tables, show.eventTable())
		res.Obs = show.fab.Registry().Export()
		dump := show.fab.Sampler().Dump()
		res.Series = &dump
	}

	explain := ""
	if show != nil {
		if ev := show.firstDrift(); ev != nil && ev.Explain != "" {
			explain = "; the alert explains itself: " + ev.Explain
		}
	}
	res.Finding = fmt.Sprintf(
		"the drift watch turns mid-run 2.5× aging into an alert within %.0f sampling windows worst-case across all 3 stacks, the unaged baseline raises %d false drift alerts, and monitored fabrics serve exactly what unmonitored ones do (TestTelemetryChargesNoVirtualTime)%s",
		detectMax, falseDrifts, explain)
	return res, nil
}

// detectTicks is the detection latency in sampling windows: injected
// aging to the first drift alert (-1 when none fired).
func (r *fabricRun) detectTicks() float64 {
	ev := r.firstDrift()
	if ev == nil {
		return -1
	}
	return float64(ev.At-r.agedAt()) / float64(r.fab.Sampler().Interval())
}

// firstDrift returns the earliest drift event at or after the aging
// injection, or nil.
func (r *fabricRun) firstDrift() *obs.HealthEvent {
	for _, ev := range r.fab.Monitor().Events() {
		if ev.Kind == obs.EventDrift && ev.At >= r.agedAt() {
			return &ev
		}
	}
	return nil
}

// eventTable renders the run's health-event ledger, one row per kind.
func (r *fabricRun) eventTable() *metrics.Table {
	t := metrics.NewTable("Health events (MultiQueue, aged, monitored)", "kind", "count")
	counts := r.fab.Monitor().Counts()
	for k := obs.EventKind(0); ; k++ {
		name := k.String()
		if name == "unknown" {
			break
		}
		if counts[name] > 0 {
			t.AddRow(name, counts[name])
		}
	}
	return t
}

// e21Shards is the monitored fabric's shard count.
const e21Shards = 8

// monitorCase is the E18 adaptive fabric with telemetry on under the
// MixedRW overload — with the mid-window 2.5× device aging injected or
// withheld.
func monitorCase(scale Scale, mode blockdev.Mode, age bool) fabricCase {
	cfg := fabricConfig(mode, e21Shards, agedOptions(scale, scale.pick(2, 4)))
	cfg.Sched.GCCoordinate = true
	adaptivePlane(scale, &cfg)
	cfg.Telemetry = true
	return fabricCase{
		cfg:    cfg,
		aged:   true,
		specs:  overloadSpecs(workload.MixedRWMix(), e21Shards),
		window: scale.ms(40, 80),
		armed: func(r *fabricRun) error {
			if age {
				r.ageAt(r.agedAt())
			}
			return nil
		},
	}
}
