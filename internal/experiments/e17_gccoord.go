package experiments

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/sched"
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

	// Headline metrics: the best 16-shard improvement across stacks, and
	// the ledger proving engagement and floor safety on every on-run.
	bestGain, bestMissOff, bestMissOn := 0.0, 0.0, 0.0
	bestMode := ""
	total16 := metrics.NewGCCoord()
	var show [2]*fabricRun // MultiQueue 16 shards, off and on

	for _, mode := range stackModes {
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
			coord := on.fab.GCCoord()
			t.AddRow(mode.String(), n,
				us(off.ls().P50()), us(on.ls().P50()),
				us(off.ls().P99()), us(on.ls().P99()),
				fmt.Sprintf("%.1f", 100*offTot.MissRate()), fmt.Sprintf("%.1f", 100*onTot.MissRate()),
				coord.Defers, coord.Renewals, coord.FloorHits, coord.MinHeadroomPages)
			if n == 16 {
				total16.Add(coord)
				gain := float64(off.ls().P99()) / float64(on.ls().P99())
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
		coord := show[1].fab.GCCoord()
		res.Tables = append(res.Tables,
			coord.Table("Coordination ledger: MultiQueue, 16 shards, coordination on"),
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

// runGCCoordConfig ages the base fabric to GC steady state, then
// replays the MixedRW overload mix with host→device GC coordination off
// or on.
func runGCCoordConfig(scale Scale, mode blockdev.Mode, shards int, coord bool) (*fabricRun, error) {
	cfg := fabricConfig(mode, shards, agedOptions(scale, scale.pick(2, 4)))
	cfg.Sched = sched.Config{GCCoordinate: coord}
	return runFabric(scale, fabricCase{
		cfg:    cfg,
		aged:   true,
		specs:  overloadSpecs(workload.MixedRWMix(), shards),
		window: scale.ms(40, 80),
	})
}
