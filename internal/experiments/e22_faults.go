package experiments

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/sim"
)

// E22DeviceDeath makes whole-device failure a measured event instead of
// an exception path: a fault-injection plan kills one of a replicated
// fabric's devices at half-window under full load. Every replica group
// with data there degrades to its survivor in the same instant (the
// device-health signal), serves at R=1 through the degraded window,
// and is rebuilt onto the spare device from the survivor's snapshot
// plus delta catch-up — while writers and readers never stop. Scored
// per stack mode: acknowledged writes lost on full read-back (must be
// zero — quorum means the survivor holds every acked write), time from
// death to full re-replication, and the latency-class p99 inside the
// degraded window vs outside it.
func E22DeviceDeath(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E22",
		Title: "device death under load: degrade to survivor, rebuild onto spare, lose nothing",
		Claim: "a peer-interface fabric survives whole-device death as an operational event, not an outage: quorum writes make the survivor a complete copy, steered reads keep serving through the degraded window, and the migration machinery rebuilds replication onto a spare with zero acknowledged writes lost",
	}
	t := metrics.NewTable("Device 0 killed at half-window (R=2 + spare, full load, rebuild from survivor)",
		"stack", "shards", "lost", "stale", "repairs", "re-replicated (µs)",
		"degraded p99 (µs)", "healthy p99 (µs)", "degraded writes", "unavailable")

	shards := scale.pick(4, 16)
	res.Headline = map[string]float64{}
	var show *ledgerRun
	var lostTotal, staleTotal int

	for _, mode := range stackModes {
		run, err := runDeathConfig(scale, mode, shards)
		if err != nil {
			return nil, err
		}
		led := run.pl.RepairLedger()
		ttrNs := timeToReReplicated(run.fab.Monitor().Events())
		t.AddRow(mode.String(), shards, run.lost, run.stale,
			led.Repairs, us(ttrNs), us(run.degraded.P99()), us(run.healthy.P99()),
			led.DegradedWrites, led.Unavailable)
		lostTotal += run.lost
		staleTotal += run.stale
		res.Headline["lost_acked_writes_"+mode.String()] = float64(run.lost)
		res.Headline["ls_p99_us_degraded_"+mode.String()] = float64(run.degraded.P99()) / 1e3
		res.Headline["ls_p99_us_healthy_"+mode.String()] = float64(run.healthy.P99()) / 1e3
		res.Headline["time_to_re_replicated_us_"+mode.String()] = float64(ttrNs) / 1e3
		if mode == blockdev.MultiQueue {
			show = run
		}
	}
	res.Headline["lost_acked_writes"] = float64(lostTotal)
	res.Headline["stale_acked_writes"] = float64(staleTotal)
	led := show.pl.RepairLedger()
	res.Headline["repairs"] = float64(led.Repairs)
	res.Headline["replicas_lost"] = float64(led.ReplicasLost)
	res.Headline["degraded_writes"] = float64(led.DegradedWrites)
	res.Tables = append(res.Tables, t, led.Table("Repair ledger: MultiQueue"))
	// The placement series are the telemetry face of this experiment:
	// device deaths, degraded traffic and repairs as time series on the
	// same clock as everything else. Export just them — the rest of the
	// sampler's schema belongs to E21.
	res.Series = show.series("place.")
	res.Finding = fmt.Sprintf(
		"killing a device mid-run lost %d acknowledged writes across all three stacks (%d stale) by full read-back: every degraded group kept serving from its survivor and was re-replicated onto the spare in %.0fµs (MultiQueue), with %d writes accepted during the degraded window",
		lostTotal, staleTotal, res.Headline["time_to_re_replicated_us_MultiQueue"], led.DegradedWrites)
	return res, nil
}

// timeToReReplicated is the span from the device-down event to the
// last repair-done event in a monitor's stream (0 when either is
// missing).
func timeToReReplicated(events []obs.HealthEvent) int64 {
	var downAt, lastRepair sim.Time
	for _, ev := range events {
		switch ev.Kind {
		case obs.EventDeviceDown:
			downAt = ev.At
		case obs.EventRepairDone:
			if ev.At > lastRepair {
				lastRepair = ev.At
			}
		}
	}
	if lastRepair > downAt && downAt > 0 {
		return int64(lastRepair - downAt)
	}
	return 0
}

// runDeathConfig drives the ledgered replicated fabric, telemetry on,
// and arms a fault plan killing device 0 at half-window —
// through the injector, so the experiment exercises the same path the
// soak tests replay.
func runDeathConfig(scale Scale, mode blockdev.Mode, shards int) (*ledgerRun, error) {
	cfg := ledgerConfig(scale, mode, shards)
	cfg.Telemetry = true
	return runLedgered(scale, cfg, place.MoverConfig{Interval: 250 * sim.Microsecond},
		func(r *fabricRun) error {
			return faults.NewInjector(r.eng, r.fab).Arm(faults.Plan{
				{Kind: faults.KillDevice, Device: 0, Frac: 0.5},
			}, r.start, r.start+r.window)
		})
}
