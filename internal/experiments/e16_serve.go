package experiments

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// E16ServingFabric measures the serving fabric (internal/serve) under
// overload: 1/4/16 KV shards multiplexed over one flash device behind
// each of the three stacks, driven by the MixedRWMix and ScanHeavyMix
// client populations, with and without shard-boundary admission
// control. The block-device world has nowhere to say "no": overload
// just grows queues until every request is late. Admission control at
// the storage boundary — bounded per-shard queues, token buckets,
// per-class deadlines — turns that unbounded backlog into immediate
// rejects and keeps what is served inside its SLO.
func E16ServingFabric(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E16",
		Title: "sharded KV serving fabric — admission control at the storage boundary",
		Claim: "a serving fabric over the communication abstraction can enforce per-shard SLOs at admission time: bounded queues turn overload into rejects, and the served requests' tail latency and deadline-miss rate drop while FIFO backlogs just grow",
	}
	t := metrics.NewTable("Serving fabric under overload: admission off vs on",
		"mix", "stack", "shards",
		"served/s off", "served/s on",
		"ls p99 off (µs)", "ls p99 on (µs)",
		"miss% off", "miss% on", "rej% on", "maxq off", "maxq on")

	mixes := []struct {
		name  string
		specs func() []workload.TenantSpec
	}{
		{"MixedRW", workload.MixedRWMix},
		{"ScanHeavy", func() []workload.TenantSpec { return workload.ScanHeavyMix(scale.pick(2, 4)) }},
	}

	// Highlight metrics: the 16-shard overload runs, worst case across
	// stacks and mixes, for the Finding and the acceptance check.
	var worstOffMiss, worstOnMiss float64 = 0, 0
	var minRejects16 int64 = 1 << 62
	var show [2]*fabricRun // MultiQueue/ScanHeavy/16 shards, off and on
	// The 4-shard ScanHeavy rows without admission, per stack: the page
	// cache's scan probation moves them, and no other headline sees them.
	res.Headline = map[string]float64{}

	for _, mix := range mixes {
		for _, mode := range stackModes {
			for _, n := range shardCounts {
				off, err := runServeConfig(scale, mode, n, mix.specs(), false)
				if err != nil {
					return nil, err
				}
				on, err := runServeConfig(scale, mode, n, mix.specs(), true)
				if err != nil {
					return nil, err
				}
				offTot, onTot := off.totals, on.totals
				t.AddRow(mix.name, mode.String(), n,
					fmt.Sprintf("%.0f", off.servedPerSec()), fmt.Sprintf("%.0f", on.servedPerSec()),
					us(off.ls().P99()), us(on.ls().P99()),
					fmt.Sprintf("%.1f", 100*offTot.MissRate()), fmt.Sprintf("%.1f", 100*onTot.MissRate()),
					fmt.Sprintf("%.1f", 100*onTot.RejectRate()),
					offTot.MaxQueue, onTot.MaxQueue)
				if n == 4 && mix.name == "ScanHeavy" {
					res.Headline["served_per_sec_scanheavy_off_"+mode.String()+"_4"] = off.servedPerSec()
					res.Headline["ls_p99_us_scanheavy_off_"+mode.String()+"_4"] = float64(off.ls().P99()) / 1e3
				}
				if n == 16 {
					if m := offTot.MissRate(); m > worstOffMiss {
						worstOffMiss = m
					}
					if m := onTot.MissRate(); m > worstOnMiss {
						worstOnMiss = m
					}
					if onTot.Rejected < minRejects16 {
						minRejects16 = onTot.Rejected
					}
					if mode == blockdev.MultiQueue && mix.name == "ScanHeavy" {
						show[0], show[1] = off, on
					}
				}
			}
		}
	}
	res.Tables = append(res.Tables, t)
	if show[0] != nil {
		res.Tables = append(res.Tables,
			show[0].shardTable("Per-shard ledger: MultiQueue, ScanHeavy, 16 shards, no admission"),
			show[1].shardTable("Per-shard ledger: MultiQueue, ScanHeavy, 16 shards, admission on"),
			show[1].lat.Table("Per-tenant served latency: MultiQueue, ScanHeavy, 16 shards, admission on"))
	}
	res.Finding = fmt.Sprintf(
		"at 16 shards every stack/mix overload run rejects at admission (min %d rejects) and holds the served deadline-miss rate at %.0f%% worst case versus %.0f%% without admission control, with per-shard backlog capped at the queue limit",
		minRejects16, 100*worstOnMiss, 100*worstOffMiss)
	res.Headline["worst_miss_pct_off_16"] = 100 * worstOffMiss
	res.Headline["worst_miss_pct_on_16"] = 100 * worstOnMiss
	res.Headline["min_rejects_16"] = float64(minRejects16)
	return res, nil
}

// shardTable renders the per-shard admission ledger joined with each
// shard's served-latency percentiles.
func (r *fabricRun) shardTable(title string) *metrics.Table {
	t := metrics.NewTable(title, "shard", "admitted", "rejected", "served", "misses", "maxq", "p50 (µs)", "p99 (µs)")
	stats := r.fab.Stats()
	for _, name := range stats.Shards() {
		c := stats.Shard(name)
		h := r.fab.ShardLatencies().Hist(name)
		t.AddRow(name, c.Admitted, c.Rejected, c.Served, c.DeadlineMissed, c.MaxQueue,
			us(h.P50()), us(h.P99()))
	}
	return t
}

// overloadSpecs scales a client mix to n shards sharing one device:
// open-loop tenants tighten their clocks and closed-loop tenants widen
// their request loops, so per-shard demand stays roughly constant while
// the shared device's slice per shard shrinks — the overload that makes
// admission control earn its keep.
func overloadSpecs(specs []workload.TenantSpec, n int) []workload.TenantSpec {
	out := make([]workload.TenantSpec, len(specs))
	for i, s := range specs {
		if s.ThinkTime > 0 {
			s.ThinkTime /= sim.Time(n)
			if s.ThinkTime < 5*sim.Microsecond {
				s.ThinkTime = 5 * sim.Microsecond
			}
		} else {
			s.Depth *= n
			if s.Depth > 32 {
				s.Depth = 32
			}
		}
		out[i] = s
	}
	return out
}

// runServeConfig replays the scaled mix over the base fabric on fresh
// buffered devices, with admission control off or on.
func runServeConfig(scale Scale, mode blockdev.Mode, shards int, specs []workload.TenantSpec, admission bool) (*fabricRun, error) {
	cfg := fabricConfig(mode, shards, smallOptions(scale))
	cfg.Admission.Enabled = admission
	return runFabric(scale, fabricCase{
		cfg:    cfg,
		specs:  overloadSpecs(specs, shards),
		window: scale.ms(20, 60),
	})
}
