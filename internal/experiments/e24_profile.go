package experiments

import (
	"fmt"
	"strings"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// E24ResourceProfile answers the question E20 and E21 could not:
// where does the *machine's* time go. The E23 saturation mix is
// replayed with the resource profiler on — every NAND
// chip, bus channel, host link, stack core and submission lock tapped,
// busy time attributed per cause (read/program/erase/GC-copy,
// submit/complete, lock hold) — at 1/4/16 shards on all three stacks.
// Three invariants gate the run: attribution closes exactly (per-
// resource cause sums equal the servers' own busy counters — 0
// unattributed, 0 double-counted, 0 unexplained "other"), profiling
// charges zero virtual time (served counts identical profiled vs
// plain), and the TopResources report names a per-configuration
// bottleneck that shifts as shards scale — the first measured answer
// to which resource caps each stack at each scale.
func E24ResourceProfile(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E24",
		Title: "resource profiling: per-chip/channel/CPU busy-time attribution + bottleneck identification",
		Claim: "owning every layer makes saturation explainable: each resource's busy time decomposes exactly into named causes at zero virtual-time cost, so the profile names which chip, channel, link, core or lock caps every configuration — and shows the bottleneck migrating as the fabric scales",
	}
	t := metrics.NewTable("Saturation sweep under the profiler",
		"stack", "shards",
		"top resource", "util", "top cause", "share",
		"chip max", "cpu max",
		"ls sched wait (ms)", "overhead %")

	modes := []blockdev.Mode{blockdev.SingleQueue, blockdev.MultiQueue, blockdev.Direct}
	shardCounts := []int{1, 4, 16}

	res.Headline = map[string]float64{}
	closed := 0
	var unattrib, doubled, other int64
	var worstOverheadPct float64
	shifts := 0
	var findings []string

	window := sim.Time(scale.pick(20, 60)) * sim.Millisecond
	for _, mode := range modes {
		topAt := map[int]obs.TopResource{}
		queueBoundAt := map[int]bool{}
		for _, n := range shardCounts {
			sample := mode == blockdev.MultiQueue && n == 16
			prof, err := runProfileConfig(scale, mode, n, true, sample)
			if err != nil {
				return nil, err
			}
			plain, err := runProfileConfig(scale, mode, n, false, false)
			if err != nil {
				return nil, err
			}
			// Zero virtual-time overhead: taps and ledgers are pure
			// host-side bookkeeping, so a profiled fabric must serve
			// exactly what a plain one does.
			overhead := 0.0
			if plain.served > 0 {
				overhead = 100 * float64(plain.served-prof.served) / float64(plain.served)
				if overhead < 0 {
					overhead = -overhead
				}
			}
			if overhead > worstOverheadPct {
				worstOverheadPct = overhead
			}

			snap := prof.profile
			unattrib += snap.UnattributedNs()
			doubled += snap.DoubleCountedNs()
			other += snap.OtherNs()
			if snap.UnattributedNs() == 0 && snap.DoubleCountedNs() == 0 && snap.OtherNs() == 0 {
				closed++
			}

			top, ok := snap.Top()
			if !ok {
				return nil, fmt.Errorf("e24: no attributed busy time (%s, %d shards)", mode, n)
			}
			topAt[n] = top
			// A configuration is queue-bound when latency-sensitive
			// requests collectively spend more than one full measurement
			// window waiting for dispatch: the constraint clients feel is
			// the scheduler queue in front of the saturated device, not
			// the device service time itself.
			queueBoundAt[n] = prof.lsSchedWaitNs > int64(window)
			t.AddRow(mode.String(), n,
				top.Resource.Name, fmt.Sprintf("%.0f%%", 100*top.Resource.Utilization),
				top.TopCause, fmt.Sprintf("%.0f%%", 100*top.CauseShare),
				fmt.Sprintf("%.0f%%", 100*kindUtil(snap, obs.ResChip)),
				fmt.Sprintf("%.0f%%", 100*kindUtil(snap, obs.ResCPU)),
				fmt.Sprintf("%.1f", float64(prof.lsSchedWaitNs)/1e6),
				fmt.Sprintf("%.2f", overhead))

			if sample && prof.series != nil {
				res.Series = prof.series
			}
			if sample && prof.obs != nil {
				res.Obs = prof.obs
			}
			if sample {
				p := snap
				res.Profile = &p
			}
			if n == 16 {
				res.Headline["top_util_"+mode.String()+"_16"] = top.Resource.Utilization
			}
		}
		// The bottleneck shift: what caps 1 shard must not be what caps
		// 16 — either the hottest resource itself moves, or the binding
		// regime does (device-bound at 1 shard, dispatch-queue-bound once
		// enough shards pile work in front of the saturated device).
		t1, t16 := topAt[1], topAt[16]
		if t1.Resource.Name != t16.Resource.Name || queueBoundAt[1] != queueBoundAt[16] {
			shifts++
		}
		findings = append(findings, fmt.Sprintf("%s %s@1→%s@16", mode,
			sideName(t1, queueBoundAt[1]), sideName(t16, queueBoundAt[16])))
	}

	// Acceptance gates, not table columns: the whole sweep must close
	// exactly and every stack's bottleneck must move with scale.
	if unattrib != 0 || doubled != 0 || other != 0 {
		return nil, fmt.Errorf("e24: attribution did not close: %d ns unattributed, %d ns double-counted, %d ns unexplained",
			unattrib, doubled, other)
	}
	if shifts != len(modes) {
		return nil, fmt.Errorf("e24: bottleneck did not shift between 1 and 16 shards on %d of %d stacks",
			len(modes)-shifts, len(modes))
	}
	res.Tables = append(res.Tables, t)
	res.Headline["closed_configs_of_9"] = float64(closed)
	res.Headline["unattributed_ns"] = float64(unattrib)
	res.Headline["double_counted_ns"] = float64(doubled)
	res.Headline["other_ns"] = float64(other)
	res.Headline["overhead_pct_max"] = worstOverheadPct
	res.Headline["bottleneck_shifts_of_3"] = float64(shifts)
	res.Finding = fmt.Sprintf(
		"attribution closes exactly on %d/9 configurations (0 ns unattributed, double-counted or unexplained) at %.2f%% virtual-time overhead, and the bottleneck shifts with scale on 3/3 stacks: %s",
		closed, worstOverheadPct, strings.Join(findings, "; "))
	return res, nil
}

// sideName renders a top resource for the finding line: its name, which
// side of the host-link boundary it sits on, its utilization, and
// whether the scheduler queue (rather than the resource's service time)
// is what requests actually wait on.
func sideName(t obs.TopResource, queueBound bool) string {
	side := "host"
	if t.DeviceBound {
		side = "device"
	}
	if queueBound {
		side += ",queue-bound"
	}
	return fmt.Sprintf("%s(%s,%.0f%%)", t.Resource.Name, side, 100*t.Resource.Utilization)
}

// kindUtil reads the max utilization of one resource kind out of a
// snapshot (the per-kind saturation columns).
func kindUtil(pr obs.Profile, kind obs.ResourceKind) float64 {
	for _, top := range pr.TopResources() {
		if top.Resource.Kind == kind {
			return top.Resource.Utilization
		}
	}
	return 0
}

// profileRun is one profiled (or plain) saturation run's outcome.
type profileRun struct {
	served        int64
	profile       obs.Profile
	lsSchedWaitNs int64
	series        *obs.SeriesDump
	obs           map[string]any
}

// runProfileConfig builds one fabric (E23's saturation configuration
// at the default batch size), profiled or plain, saturates it for the window, and
// snapshots the attribution.
func runProfileConfig(scale Scale, mode blockdev.Mode, shards int, profile, sample bool) (*profileRun, error) {
	eng := sim.NewEngine()
	cfg := serve.Config{
		Shards:        shards,
		Mode:          mode,
		DeviceOptions: smallOptions(scale),
		Scheduled:     true,
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
		Trace:   true,
		Profile: profile,
	}
	if sample {
		cfg.Sample = obs.SampleConfig{Enabled: true}
	}
	run := &profileRun{}
	lat := metrics.NewTenantLatencies()
	var fab *serve.Fabric
	var ferr error
	eng.Go(func(p *sim.Proc) {
		f, err := serve.New(p, eng, cfg)
		if err != nil {
			ferr = err
			return
		}
		fab = f
		fe := serve.NewFrontend(f, int64(shards*scale.pick(320, 480)), 48)
		if err := fe.Preload(p); err != nil {
			ferr = err
			return
		}
		f.ResetStats()
		window := sim.Time(scale.pick(20, 60)) * sim.Millisecond
		horizon := p.Now() + window
		if err := fe.Drive(saturationSpecs(shards), horizon, lat); err != nil {
			ferr = err
			return
		}
		f.StopAt(horizon, false)
	})
	eng.Run()
	if ferr != nil {
		return nil, ferr
	}
	run.served = fab.Stats().Totals().Served
	if profile {
		run.profile = fab.Profiler().Snapshot()
		for name, classes := range run.profile.Waits {
			if strings.HasSuffix(name, ".sched") {
				run.lsSchedWaitNs += classes["latency"]
			}
		}
	}
	if sample {
		dump := fab.Sampler().Dump()
		var keep []obs.SeriesData
		for _, s := range dump.Series {
			if strings.HasPrefix(s.Name, "fabric.util.") || strings.HasPrefix(s.Name, "device.chip.") {
				keep = append(keep, s)
			}
		}
		dump.Series = keep
		run.series = &dump
		run.obs = fab.Registry().Export()
	}
	return run, nil
}
