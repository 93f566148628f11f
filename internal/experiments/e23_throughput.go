package experiments

import (
	"fmt"
	"slices"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim"
)

// E23Throughput measures what batching buys on the one submission path:
// the same closed-loop saturation mix is replayed over the serving
// fabric with workers draining a batch of 1 (serve.BatchConfig.MaxOps =
// 1: every op its own serve cost, its own commit hand-off and its own
// trip through the block layer) and the default batch of 8 (a drain's
// puts share one commit), at 1, 4 and 16 shards on all three stacks.
// The claim is amortization of the fixed per-op costs — submission
// lock, completion IRQ, log sync — and since the log writer pipelines
// commits (PR 25) the sync is amortized whatever the drain size: every
// commit handed off while a sync runs rides the next one, so a batch of
// one already groups its log writes, and a bigger drain buys only the
// serve and submission costs it shares.
func E23Throughput(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E23",
		Title: "hot-path throughput: batched submission/completion rings + pipelined group commit",
		Claim: "the hot path's fixed per-op costs — ring dequeues, DRR drains, completions, log syncs — must be paid per batch of work, not per op: once a pipelined log writer pays one sync for every commit in flight, a batch of one gets what only a batch used to — a higher saturated ops/sec ceiling and lower CPU ns/op than the per-op commit path, on every stack — and a drain of 8 adds only the serve and submission costs it shares, which need not win CPU ns/op; none of it changes what is admitted, scheduled or traced",
	}
	t := metrics.NewTable("Saturation sweep: batch of 1 vs batch of 8",
		"stack", "shards",
		"ops/s b1", "ops/s b8", "speedup",
		"cpu ns/op b1", "cpu ns/op b8",
		"ls p99 b1 (µs)", "ls p99 b8 (µs)",
		"rej b1", "rej b8")

	res.Headline = map[string]float64{}
	var leaks, overruns int64
	batchWins16 := 0
	var minRejects16 int64 = 1 << 62
	// 16-shard values across the stacks, for the finding's ranges.
	var ops1s, ops8s, cpu1s, gains []float64

	for _, mode := range stackModes {
		for _, n := range shardCounts {
			b1, err := runThroughputConfig(scale, mode, n, 1)
			if err != nil {
				return nil, err
			}
			b8, err := runThroughputConfig(scale, mode, n, 0)
			if err != nil {
				return nil, err
			}
			for _, r := range []*throughputRun{b1, b8} {
				tr := r.fab.Tracer()
				leaks += tr.Opened() - tr.Closed()
				overruns += tr.Overruns()
			}
			ops1, ops8 := b1.servedPerSec(), b8.servedPerSec()
			t.AddRow(mode.String(), n,
				fmt.Sprintf("%.0f", ops1), fmt.Sprintf("%.0f", ops8),
				fmt.Sprintf("%.2fx", ops8/ops1),
				fmt.Sprintf("%.0f", b1.cpuPerOpNs), fmt.Sprintf("%.0f", b8.cpuPerOpNs),
				us(b1.ls().P99()), us(b8.ls().P99()),
				b1.totals.Rejected, b8.totals.Rejected)
			if n == 16 {
				res.Headline["ops_per_sec_batch1_"+mode.String()+"_16"] = ops1
				res.Headline["ops_per_sec_batch8_"+mode.String()+"_16"] = ops8
				res.Headline["cpu_ns_per_op_batch1_"+mode.String()+"_16"] = b1.cpuPerOpNs
				res.Headline["cpu_ns_per_op_batch8_"+mode.String()+"_16"] = b8.cpuPerOpNs
				if ops8 > ops1 && b8.cpuPerOpNs < b1.cpuPerOpNs {
					batchWins16++
				}
				minRejects16 = min(minRejects16, b1.totals.Rejected, b8.totals.Rejected)
				ops1s = append(ops1s, ops1/1e3)
				ops8s = append(ops8s, ops8/1e3)
				cpu1s = append(cpu1s, b1.cpuPerOpNs)
				gains = append(gains, 100*(ops8/ops1-1))
			}
			// The default batch's MultiQueue/16 run carries the live
			// fabric.throughput.* series into the artifact.
			if mode == blockdev.MultiQueue && n == 16 {
				res.Series = b8.series("fabric.throughput.")
			}
		}
	}
	// The E20 invariant is an acceptance gate, not a table column: no
	// batch size may leak or overrun a single span anywhere in the
	// sweep.
	if leaks != 0 || overruns != 0 {
		return nil, fmt.Errorf("e23: span accounting broke under batching: %d leaks, %d overruns", leaks, overruns)
	}
	if minRejects16 == 0 {
		return nil, fmt.Errorf("e23: a 16-shard saturation run never rejected: admission control lost its bite")
	}
	res.Tables = append(res.Tables, t)
	res.Headline["batch8_wins_16_of_3"] = float64(batchWins16)
	res.Headline["span_leaks"] = float64(leaks)
	res.Headline["span_overruns"] = float64(overruns)
	res.Headline["min_rejects_16"] = float64(minRejects16)
	res.Finding = fmt.Sprintf(
		"at 16 shards the batch of 1 serves %.1f-%.1f k ops/s at %.0f-%.0f CPU ns/op and the batch of 8 %.1f-%.1f k: the log writer groups every commit handed off during a sync whatever the drain size, so batching buys %+.0f to %+.0f %% ops/s and wins both ops/sec and CPU ns/op on %d of 3 stacks, with span accounting exact across the whole sweep (0 leaks, 0 overruns) and admission still rejecting under saturation on every 16-shard run (min %d rejects)",
		slices.Min(ops1s), slices.Max(ops1s), slices.Min(cpu1s), slices.Max(cpu1s),
		slices.Min(ops8s), slices.Max(ops8s), slices.Min(gains), slices.Max(gains),
		batchWins16, minRejects16)
	return res, nil
}

// throughputRun is a saturation run plus the CPU ns each served op cost
// across every submission core, lock and completion core in the stack.
type throughputRun struct {
	*fabricRun
	cpuPerOpNs float64
}

// runThroughputConfig saturates the fabric with workers draining maxOps
// ops per batch (0 = the default).
func runThroughputConfig(scale Scale, mode blockdev.Mode, shards, maxOps int) (*throughputRun, error) {
	c := saturated(scale, mode, shards)
	c.cfg.Batch = serve.BatchConfig{MaxOps: maxOps}
	var cpuBase sim.Time
	c.armed = func(r *fabricRun) error {
		cpuBase = stackCPU(r.fab)
		return nil
	}
	run, err := runFabric(scale, c)
	if err != nil {
		return nil, err
	}
	out := &throughputRun{fabricRun: run}
	if run.totals.Served > 0 {
		out.cpuPerOpNs = float64(stackCPU(run.fab)-cpuBase) / float64(run.totals.Served)
	}
	return out, nil
}

// stackCPU sums busy time across every device stack's submission
// cores, queue lock and completion accounting — the denominator of
// the per-op CPU cost.
func stackCPU(f *serve.Fabric) sim.Time {
	var total sim.Time
	for d := 0; d < f.Devices(); d++ {
		total += f.Stack(d).CPUBusy()
	}
	return total
}
