package main

import "fmt"

// metric is one named, measured value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample counts and the like, printed beside the value
}

// newMetric makes a metric whose unit is the one its spec declares.
// Measuring a name no spec declares is a bug in the benchmark.
func newMetric(name string, value float64, note string) metric {
	for _, table := range [][]spec{endToEnd, perLayerSpecs} {
		for _, sp := range table {
			if sp.name == name {
				return metric{name, value, sp.unit, note}
			}
		}
	}
	panic("bench: metric " + name + " is declared in neither endToEnd nor perLayerSpecs")
}

// spec declares an end-to-end metric: its unit, its direction and the
// relative worsening that counts as a regression. BENCHMARK.json lists
// the same, and a test keeps the two in step.
type spec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is the fixed list of end-to-end metrics, the same on every
// workload. The virtual-clock ones repeat exactly for one seed; their
// bounds are sized to their spread across seeds (see README).
//
// Latency is reported as a trimmed mean and p99, not p50 and p99: on
// three of the four workloads the median sits on a model constant (the
// write buffer's 18.826 us ack, a cached get's 2 us serve cost), so it
// can neither regress nor vary. The trimmed mean is the mean of the
// fastest 99 % — the slowest 1 % is what p99 reports — because a few
// multi-millisecond stalls beyond p99 moved kv_open's plain read mean
// 20 % from seed to seed. Medians and plain means are printed beside.
// The modelled host-stack CPU per op, virt_cpu_ns_per_op, exists on the
// kv workloads only and therefore lives with the per-layer metrics
// (blockdev.cpu_ns_per_op) in the contract.
var endToEnd = []spec{
	{"virt_ops_per_s", "1/s", "higher", 0.05},
	{"virt_read_tmean_us", "us", "lower", 0.12},
	{"virt_read_p99_us", "us", "lower", 0.25},
	{"virt_write_tmean_us", "us", "lower", 0.16},
	{"virt_write_p99_us", "us", "lower", 0.25},
	{"virt_write_amp", "ratio", "lower", 0.03},
	{"virt_completed_share", "ratio", "higher", 0.12},
	{"virt_goodput_in_slo_per_s", "1/s", "higher", 0.08},
	{"host_allocs_per_op", "count", "lower", 0.08},
	{"host_bytes_per_op", "B", "lower", 0.08},
	{"host_live_heap_mb", "MB", "lower", 0.10},
	{"host_us_per_op", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerSpecs is the fixed, ordered list of per-layer metrics a traced
// run reports (an untraced run prints the counter-derived ones it has).
// The prefix is the module. A value of 0 means the workload does not
// exercise that layer.
var perLayerSpecs = []spec{
	{"sim.events_per_op", "count", "lower", 0},
	{"sim.host_ns_per_event", "ns", "lower", 0},
	{"sim.virt_s_per_host_s", "ratio", "higher", 0},
	{"host.gc_cycles_per_kop", "count", "lower", 0},
	{"host.gc_pause_share", "ratio", "lower", 0},
	{"host.pass_spread", "ratio", "lower", 0},

	{"nand.reads_per_op", "count", "lower", 0},
	{"nand.programs_per_op", "count", "lower", 0},
	{"nand.erases_per_kop", "count", "lower", 0},
	{"nand.lun_util_mean", "ratio", "lower", 0},
	{"nand.lun_util_max", "ratio", "lower", 0},
	{"bus.channel_util_mean", "ratio", "lower", 0},
	{"bus.channel_util_max", "ratio", "lower", 0},
	{"ssd.link_util", "ratio", "lower", 0},
	{"ssd.read_resid_p50_us", "us", "lower", 0},
	{"ssd.read_resid_p99_us", "us", "lower", 0},
	{"ssd.write_resid_p50_us", "us", "lower", 0},
	{"ssd.write_resid_p99_us", "us", "lower", 0},

	{"ftl.gc_moves_per_write", "count", "lower", 0},
	{"ftl.gc_erases_per_kwrite", "count", "lower", 0},
	{"ftl.buffer_stalls_per_write", "count", "lower", 0},
	{"ftl.buffer_hit_share", "ratio", "higher", 0},
	{"ftl.write_amp_drift", "ratio", "lower", 0},

	{"blockdev.cpu_ns_per_op", "ns", "lower", 0},
	{"blockdev.cpu_util_max", "ratio", "lower", 0},
	{"blockdev.lock_util", "ratio", "lower", 0},
	{"sched.wait_us_per_op.ls", "us", "lower", 0},
	{"sched.wait_us_per_op.tp", "us", "lower", 0},

	{"wal.syncs_per_commit", "count", "lower", 0},
	{"kvstore.commits_per_put", "count", "lower", 0},
	{"kvstore.checkpoints_per_kop", "count", "lower", 0},
	{"kvstore.dev_ios_per_get", "count", "lower", 0},
	{"kvstore.dev_ios_per_put", "count", "lower", 0},
	{"btree.height", "count", "lower", 0},
	{"btree.page_lookups_per_op", "count", "lower", 0},
	{"bufpool.hit_share", "ratio", "higher", 0},
	{"bufpool.evictions_per_op", "count", "lower", 0},

	{"serve.rejected_share", "ratio", "lower", 0},
	{"serve.dropped_share", "ratio", "lower", 0},
	{"serve.failed_share", "ratio", "lower", 0},
	{"serve.deadline_miss_share", "ratio", "lower", 0},
	{"serve.shard_residence_p50_us", "us", "lower", 0},
	{"serve.shard_residence_p99_us", "us", "lower", 0},
	{"serve.queue_len_at_submit_mean", "count", "lower", 0},
	{"place.steered_read_share", "ratio", "higher", 0},
	{"place.avoided_gc_share", "ratio", "higher", 0},
	{"place.quorum_writes_per_put", "count", "lower", 0},
	{"place.write_reject_share", "ratio", "lower", 0},

	{"host_self_share.sim", "ratio", "lower", 0},
	{"host_self_share.nand", "ratio", "lower", 0},
	{"host_self_share.bus", "ratio", "lower", 0},
	{"host_self_share.ecc", "ratio", "lower", 0},
	{"host_self_share.ftl", "ratio", "lower", 0},
	{"host_self_share.ssd", "ratio", "lower", 0},
	{"host_self_share.blockdev", "ratio", "lower", 0},
	{"host_self_share.sched", "ratio", "lower", 0},
	{"host_self_share.core", "ratio", "lower", 0},
	{"host_self_share.wal", "ratio", "lower", 0},
	{"host_self_share.btree", "ratio", "lower", 0},
	{"host_self_share.bufpool", "ratio", "lower", 0},
	{"host_self_share.kvstore", "ratio", "lower", 0},
	{"host_self_share.serve", "ratio", "lower", 0},
	{"host_self_share.place", "ratio", "lower", 0},
	{"host_self_share.obs", "ratio", "lower", 0},
	{"host_self_share.metrics", "ratio", "lower", 0},
	{"host_self_share.workload", "ratio", "lower", 0},
	{"host_self_share.bench", "ratio", "lower", 0},
	{"host_self_share.runtime.memmove", "ratio", "lower", 0},
	{"host_self_share.runtime.malloc_gc", "ratio", "lower", 0},
	{"host_self_share.runtime.sched_chan", "ratio", "lower", 0},
	{"host_self_share.runtime.map", "ratio", "lower", 0},
	{"host_self_share.runtime.other", "ratio", "lower", 0},
	{"host_self_share.std", "ratio", "lower", 0},

	{"blockdev.self_us_p50.sq", "us", "lower", 0},
	{"blockdev.self_us_p50.mq", "us", "lower", 0},
	{"blockdev.self_us_p50.direct", "us", "lower", 0},
	{"sched.self_us_p50", "us", "lower", 0},
	{"kvstore.self_us_p50.get", "us", "lower", 0},
	{"kvstore.self_us_p50.put", "us", "lower", 0},
	{"serve.self_us_p50", "us", "lower", 0},
	{"place.self_us_p50", "us", "lower", 0},
	{"trace.spans", "count", "higher", 0},
	{"trace.overhead_host_share", "ratio", "lower", 0},

	{"serve.ladder_p99_us.r050", "us", "lower", 0},
	{"serve.ladder_p99_us.r100", "us", "lower", 0},
	{"serve.ladder_p99_us.r150", "us", "lower", 0},
	{"serve.ladder_p99_us.r200", "us", "lower", 0},
	{"serve.max_rate_in_slo_per_s", "1/s", "higher", 0},
}

// inSpecOrder sorts per-layer metrics into perLayerSpecs order. With
// all set, every spec must have a value.
func inSpecOrder(ms []metric, all bool) ([]metric, error) {
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.name] = m
	}
	out := make([]metric, 0, len(ms))
	for _, sp := range perLayerSpecs {
		m, ok := byName[sp.name]
		if !ok {
			if all {
				return nil, fmt.Errorf("per-layer metric %s was not measured", sp.name)
			}
			continue
		}
		out = append(out, m)
	}
	return out, nil
}

// quantileUs is a latency quantile in microseconds.
func quantileUs(sorted []int64, q float64) float64 {
	return float64(pick(sorted, q)) / 1e3
}

// endToEndVirtual derives the virtual-clock end-to-end metrics of one
// pass from the load generator's ledger and the layer counters.
func endToEndVirtual(p *passResult) []metric {
	v := p.v
	d := p.after.sub(p.before)
	span := (v.end - v.start).Seconds()
	reads, writes := sortedCopy(v.readLat), sortedCopy(v.writeLat)
	pageBytes := float64(p.after.pageSize)
	return []metric{
		newMetric("virt_ops_per_s", ratio(float64(v.completed), span), ""),
		newMetric("virt_read_tmean_us", trimmedMeanUs(reads), tailNote(reads)),
		newMetric("virt_read_p99_us", quantileUs(reads, 0.99), ""),
		newMetric("virt_write_tmean_us", trimmedMeanUs(writes), tailNote(writes)),
		newMetric("virt_write_p99_us", quantileUs(writes, 0.99), ""),
		newMetric("virt_write_amp", ratio(float64(d.nandPrograms)*pageBytes, float64(v.userBytes)), ""),
		newMetric("virt_completed_share", ratio(float64(v.completed), float64(v.submissions)), ""),
		newMetric("virt_goodput_in_slo_per_s", ratio(float64(v.inSLO), span), ""),
	}
}

// trimmedMeanUs is the mean of the fastest 99 % of an ascending latency
// sample, in microseconds.
func trimmedMeanUs(sorted []int64) float64 {
	return meanUs(sorted[:int(0.99*float64(len(sorted))+0.5)])
}

// meanUs is the mean of a latency sample in microseconds.
func meanUs(xs []int64) float64 {
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return ratio(sum, float64(len(xs))) / 1e3
}

// tailNote states the sample count, the median, the plain mean and the
// highest percentile the sample supports, printed beside the trimmed
// mean and p99.
func tailNote(sorted []int64) string {
	n := len(sorted)
	if n == 0 {
		return "n=0"
	}
	q := supportedTail(n)
	return sprintf("n=%d, p50 = %.3f us, mean = %.1f us, highest supported p%g = %.1f us", n, quantileUs(sorted, 0.5), meanUs(sorted), q*100, quantileUs(sorted, q))
}

// endToEndHost derives the host-clock end-to-end metrics of a run.
// Allocation counts and the live heap come from the first pass (they
// repeat to 1e-6); the wall figures are the defensive estimates.
func endToEndHost(r *runResult) []metric {
	p0 := r.passes[0]
	ops := float64(p0.v.completed)
	setup := p0.host.setupNs
	for _, p := range r.passes[1:] {
		if p.host.setupNs < setup {
			setup = p.host.setupNs
		}
	}
	return []metric{
		newMetric("host_allocs_per_op", ratio(float64(p0.host.mallocs), ops), ""),
		newMetric("host_bytes_per_op", ratio(float64(p0.host.bytes), ops), ""),
		newMetric("host_live_heap_mb", float64(p0.host.liveHeap)/(1<<20), ""),
		newMetric("host_us_per_op", ratio(float64(r.hostNs)/1e3, ops), sprintf("segment minimum over %d passes", len(r.passes))),
		newMetric("setup_s", float64(setup)/1e9, sprintf("minimum over %d passes", len(r.passes))),
	}
}

// perLayer derives the per-layer metrics that come from counters: the
// first pass's ledger deltas (exact) and the run's host figures.
func perLayer(r *runResult) []metric {
	p := r.passes[0]
	v := p.v
	d := p.after.sub(p.before)
	ops := float64(v.completed)
	kops := ops / 1e3
	span := v.end - v.start
	events := float64(p.host.events)

	var gcPause, wall float64
	var gcCycles float64
	for _, q := range r.passes {
		gcPause += float64(q.host.gcPauseNs)
		gcCycles += float64(q.host.gcCycles)
		for _, s := range q.host.segments {
			wall += float64(s)
		}
	}
	segs := make([][]int64, len(r.passes))
	for i, q := range r.passes {
		segs[i] = q.host.segments
	}

	lunMean, lunMax := utilization(d.lunBusy, span)
	chMean, chMax := utilization(d.chanBusy, span)
	linkMean, _ := utilization(d.linkBusy, span)
	_, coreMax := utilization(d.coreBusy, span)

	// Write amplification of the window's two halves: set-up was long
	// enough when the second half costs what the first did.
	h1, h2 := v.mid.sub(p.before), p.after.sub(v.mid)
	drift := ratio(ratio(float64(h2.nandPrograms), float64(h2.hostWrites)), ratio(float64(h1.nandPrograms), float64(h1.hostWrites)))

	m := []metric{
		newMetric("sim.events_per_op", ratio(events, ops), ""),
		newMetric("sim.host_ns_per_event", ratio(float64(r.hostNs), events), ""),
		newMetric("sim.virt_s_per_host_s", ratio(span.Seconds(), float64(r.hostNs)/1e9), ""),
		newMetric("host.gc_cycles_per_kop", ratio(gcCycles/float64(len(r.passes)), kops), ""),
		newMetric("host.gc_pause_share", ratio(gcPause, wall), ""),
		newMetric("host.pass_spread", passSpread(segs, r.hostNs), ""),

		newMetric("nand.reads_per_op", ratio(float64(d.nandReads), ops), ""),
		newMetric("nand.programs_per_op", ratio(float64(d.nandPrograms), ops), ""),
		newMetric("nand.erases_per_kop", ratio(float64(d.nandErases), kops), ""),
		newMetric("nand.lun_util_mean", lunMean, ""),
		newMetric("nand.lun_util_max", lunMax, ""),
		newMetric("bus.channel_util_mean", chMean, ""),
		newMetric("bus.channel_util_max", chMax, ""),
		newMetric("ssd.link_util", linkMean, ""),
		newMetric("ssd.read_resid_p50_us", histQuantileUs(p.after.devReadLat, 0.50), ""),
		newMetric("ssd.read_resid_p99_us", histQuantileUs(p.after.devReadLat, 0.99), ""),
		newMetric("ssd.write_resid_p50_us", histQuantileUs(p.after.devWriteLat, 0.50), ""),
		newMetric("ssd.write_resid_p99_us", histQuantileUs(p.after.devWriteLat, 0.99), ""),

		newMetric("ftl.gc_moves_per_write", ratio(float64(d.gcMoves), float64(d.hostWrites)), ""),
		newMetric("ftl.gc_erases_per_kwrite", ratio(float64(d.gcErases), float64(d.hostWrites)/1e3), ""),
		newMetric("ftl.buffer_stalls_per_write", ratio(float64(d.bufStalls), float64(d.hostWrites)), ""),
		newMetric("ftl.buffer_hit_share", ratio(float64(d.bufHits), float64(d.hostReads)), ""),
		newMetric("ftl.write_amp_drift", drift, sprintf("second half / first half of the window: %d/%d vs %d/%d", h2.nandPrograms, h2.hostWrites, h1.nandPrograms, h1.hostWrites)),

		newMetric("blockdev.cpu_ns_per_op", ratio(float64(d.cpuBusy), ops), "= virt_cpu_ns_per_op"),
		newMetric("blockdev.cpu_util_max", coreMax, ""),
		newMetric("blockdev.lock_util", ratio(float64(d.lockBusy), float64(span)), ""),
		newMetric("sched.wait_us_per_op.ls", ratio(float64(d.waitLS)/1e3, ops), ""),
		newMetric("sched.wait_us_per_op.tp", ratio(float64(d.waitTP)/1e3, ops), ""),

		newMetric("wal.syncs_per_commit", ratio(float64(d.walSyncs), float64(d.walCommits)), ""),
		newMetric("kvstore.commits_per_put", ratio(float64(d.commits), float64(v.puts)), ""),
		newMetric("kvstore.checkpoints_per_kop", ratio(float64(d.checkpoints), kops), ""),
		newMetric("kvstore.dev_ios_per_get", ratio(float64(d.devReads), float64(v.gets)), ""),
		newMetric("kvstore.dev_ios_per_put", ratio(float64(d.devWrites), float64(v.puts)), ""),
		newMetric("btree.height", float64(p.after.treeHeight), "as Tree.Height() reports it"),
		newMetric("btree.page_lookups_per_op", ratio(float64(d.poolHits+d.poolMisses), ops), ""),
		newMetric("bufpool.hit_share", ratio(float64(d.poolHits), float64(d.poolHits+d.poolMisses)), ""),
		newMetric("bufpool.evictions_per_op", ratio(float64(d.poolEvictions), ops), ""),

		newMetric("serve.rejected_share", ratio(float64(d.rejected), float64(d.submitted)), ""),
		newMetric("serve.dropped_share", ratio(float64(d.dropped), float64(d.submitted)), ""),
		newMetric("serve.failed_share", ratio(float64(d.failed), float64(d.submitted)), ""),
		newMetric("serve.deadline_miss_share", ratio(float64(d.missed), float64(d.served)), ""),
		newMetric("serve.shard_residence_p50_us", histQuantileUs(p.after.shardLat, 0.50), "arrival at the shard to settled"),
		newMetric("serve.shard_residence_p99_us", histQuantileUs(p.after.shardLat, 0.99), ""),
		newMetric("serve.queue_len_at_submit_mean", ratio(float64(v.queueSeen), float64(v.submissions)), "admission-queue length each submission found"),

		newMetric("place.steered_read_share", ratio(float64(d.steered), float64(d.steered+d.tie)), ""),
		newMetric("place.avoided_gc_share", ratio(float64(d.avoidedGC), float64(d.steered+d.tie)), ""),
		newMetric("place.quorum_writes_per_put", ratio(float64(d.quorumWrites), float64(v.puts)), ""),
		newMetric("place.write_reject_share", ratio(float64(d.writeRejects), float64(d.quorumWrites+d.writeRejects)), ""),
	}
	return m
}
