package experiments

import (
	"fmt"
	"strings"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// E24ResourceProfile answers the question E20 and E21 could not:
// where does the *machine's* time go. The E23 saturation mix is
// replayed with the resource profiler on — every NAND
// chip, bus channel, host link, stack core and submission lock tapped,
// busy time attributed per cause (read/program/erase/GC-copy,
// submit/complete, lock hold) — at 1/4/16 shards on all three stacks.
// Two invariants gate the run: attribution closes exactly (per-resource
// cause sums equal the servers' own busy counters — 0 unattributed, 0
// double-counted, 0 unexplained "other"), and the TopResources report
// names a per-configuration bottleneck that shifts as shards scale —
// the first measured answer to which resource caps each stack at each
// scale. That profiling charges zero virtual time is
// TestTelemetryChargesNoVirtualTime's to show: it runs every case of
// this sweep with telemetry on and off.
func E24ResourceProfile(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E24",
		Title: "resource profiling: per-chip/channel/CPU busy-time attribution + bottleneck identification",
		Claim: "owning every layer makes saturation explainable: each resource's busy time decomposes exactly into named causes at zero virtual-time cost (TestTelemetryChargesNoVirtualTime), so the profile names which chip, channel, link, core or lock caps every configuration — and shows the bottleneck migrating as the fabric scales",
	}
	t := metrics.NewTable("Saturation sweep under the profiler",
		"stack", "shards",
		"top resource", "util", "top cause", "share",
		"chip max", "cpu max",
		"ls sched wait (ms)")

	res.Headline = map[string]float64{}
	closed := 0
	var unattrib, doubled, other int64
	shifts := 0
	var findings []string

	for _, mode := range stackModes {
		topAt := map[int]obs.TopResource{}
		queueBoundAt := map[int]bool{}
		for _, n := range shardCounts {
			prof, err := runFabric(scale, saturated(scale, mode, n))
			if err != nil {
				return nil, err
			}

			snap := prof.fab.Profiler().Snapshot()
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
			var lsSchedWaitNs int64
			for name, classes := range snap.Waits {
				if strings.HasSuffix(name, ".sched") {
					lsSchedWaitNs += classes["latency"]
				}
			}
			queueBoundAt[n] = lsSchedWaitNs > int64(prof.window)
			t.AddRow(mode.String(), n,
				top.Resource.Name, fmt.Sprintf("%.0f%%", 100*top.Resource.Utilization),
				top.TopCause, fmt.Sprintf("%.0f%%", 100*top.CauseShare),
				fmt.Sprintf("%.0f%%", 100*kindUtil(snap, obs.ResChip)),
				fmt.Sprintf("%.0f%%", 100*kindUtil(snap, obs.ResCPU)),
				fmt.Sprintf("%.1f", float64(lsSchedWaitNs)/1e6))

			if mode == blockdev.MultiQueue && n == 16 {
				res.Series = prof.series("fabric.util.", "device.chip.")
				res.Obs = prof.fab.Registry().Export()
				res.Profile = &snap
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
	if shifts != len(stackModes) {
		return nil, fmt.Errorf("e24: bottleneck did not shift between 1 and 16 shards on %d of %d stacks",
			len(stackModes)-shifts, len(stackModes))
	}
	res.Tables = append(res.Tables, t)
	res.Headline["closed_configs_of_9"] = float64(closed)
	res.Headline["unattributed_ns"] = float64(unattrib)
	res.Headline["double_counted_ns"] = float64(doubled)
	res.Headline["other_ns"] = float64(other)
	res.Headline["bottleneck_shifts_of_3"] = float64(shifts)
	res.Finding = fmt.Sprintf(
		"attribution closes exactly on %d/9 configurations (0 ns unattributed, double-counted or unexplained) at no virtual-time cost (TestTelemetryChargesNoVirtualTime), and the bottleneck shifts with scale on 3/3 stacks: %s",
		closed, strings.Join(findings, "; "))
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
