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
	"repro/internal/workload"
)

// E23Throughput measures what batching buys on the one submission path:
// the same closed-loop saturation mix is replayed over the serving
// fabric with workers draining a batch of 1 (serve.BatchConfig.MaxOps =
// 1: every op its own serve cost, its own commit, its own log sync and
// its own trip through the block layer) and the default batch of 8
// (runs of puts share one group commit, whose dirty log pages share one
// device submission), at 1, 4 and 16 shards on all three stacks. The
// claim is pure amortization: a batch pays the fixed per-op costs —
// submission lock, completion IRQ, log sync — once instead of once per
// op, so the ops/sec ceiling rises and the CPU ns burned per served op
// falls, while admission rejects and span accounting stay exact.
func E23Throughput(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E23",
		Title: "hot-path throughput: batched submission/completion rings + multi-op group commit",
		Claim: "batching the hot path — ring dequeues, batch DRR drains, completion rings, multi-op kvstore commits — raises the saturated ops/sec ceiling and cuts per-op CPU cost on every stack, without changing what is admitted, scheduled or traced",
	}
	t := metrics.NewTable("Saturation sweep: batch of 1 vs batch of 8",
		"stack", "shards",
		"ops/s b1", "ops/s b8", "speedup",
		"cpu ns/op b1", "cpu ns/op b8",
		"ls p99 b1 (µs)", "ls p99 b8 (µs)",
		"rej b1", "rej b8")

	modes := []blockdev.Mode{blockdev.SingleQueue, blockdev.MultiQueue, blockdev.Direct}
	shardCounts := []int{1, 4, 16}

	res.Headline = map[string]float64{}
	var leaks, overruns int64
	batchWins16 := 0
	var minRejects16 int64 = 1 << 62

	for _, mode := range modes {
		for _, n := range shardCounts {
			// The sampled run: default batch, MultiQueue, 16 shards
			// carries the live fabric.throughput.* series into the
			// artifact.
			sample := mode == blockdev.MultiQueue && n == 16
			b1, err := runThroughputConfig(scale, mode, n, 1, false)
			if err != nil {
				return nil, err
			}
			b8, err := runThroughputConfig(scale, mode, n, 0, sample)
			if err != nil {
				return nil, err
			}
			leaks += b1.leaks + b8.leaks
			overruns += b1.overruns + b8.overruns
			speedup := b8.servedPerSec / b1.servedPerSec
			t.AddRow(mode.String(), n,
				fmt.Sprintf("%.0f", b1.servedPerSec), fmt.Sprintf("%.0f", b8.servedPerSec),
				fmt.Sprintf("%.2fx", speedup),
				fmt.Sprintf("%.0f", b1.cpuPerOpNs), fmt.Sprintf("%.0f", b8.cpuPerOpNs),
				us(b1.lsP99), us(b8.lsP99),
				b1.rejected, b8.rejected)
			if n == 16 {
				res.Headline["ops_per_sec_batch1_"+mode.String()+"_16"] = b1.servedPerSec
				res.Headline["ops_per_sec_batch8_"+mode.String()+"_16"] = b8.servedPerSec
				res.Headline["cpu_ns_per_op_batch1_"+mode.String()+"_16"] = b1.cpuPerOpNs
				res.Headline["cpu_ns_per_op_batch8_"+mode.String()+"_16"] = b8.cpuPerOpNs
				if b8.servedPerSec > b1.servedPerSec && b8.cpuPerOpNs < b1.cpuPerOpNs {
					batchWins16++
				}
				for _, r := range []int64{b1.rejected, b8.rejected} {
					if r < minRejects16 {
						minRejects16 = r
					}
				}
			}
			if sample && b8.series != nil {
				res.Series = b8.series
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
		"at 16 shards the batch of 8 beats the batch of 1 on both ops/sec and CPU ns/op on %d of 3 stacks, with span accounting exact across the whole sweep (0 leaks, 0 overruns) and admission still rejecting under saturation on every 16-shard run (min %d rejects)",
		batchWins16, minRejects16)
	return res, nil
}

// throughputRun is one saturation configuration's measured outcome.
type throughputRun struct {
	servedPerSec float64
	cpuPerOpNs   float64
	lsP99        int64
	rejected     int64
	leaks        int64
	overruns     int64
	series       *obs.SeriesDump
}

// saturationSpecs is the closed-loop mix that pins the fabric at its
// ceiling: latency-sensitive point readers plus throughput writers,
// depths widened linearly with the shard count (unlike E16's
// overloadSpecs this does not cap at 32 — per-shard demand must stay
// constant all the way to 16 shards, or the sweep's biggest point
// would run unsaturated and measure idle time instead of the ceiling).
func saturationSpecs(shards int) []workload.TenantSpec {
	return []workload.TenantSpec{
		{Name: "point-reads", LatencySensitive: true, Weight: 2, Pattern: workload.RR, Depth: 4 * shards, Seed: 231},
		{Name: "writers", Weight: 1, Pattern: workload.RW, Depth: 8 * shards, Seed: 232},
	}
}

// runThroughputConfig builds one fabric whose workers drain maxOps ops
// per batch (0 = the default), saturates it for the window, and reads
// ops/sec plus the CPU ns each served op cost across every submission
// core, lock and completion core in the stack.
func runThroughputConfig(scale Scale, mode blockdev.Mode, shards, maxOps int, sample bool) (*throughputRun, error) {
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
		Trace: true,
		Batch: serve.BatchConfig{MaxOps: maxOps},
	}
	if sample {
		cfg.Sample = obs.SampleConfig{Enabled: true}
	}
	run := &throughputRun{}
	lat := metrics.NewTenantLatencies()
	var fab *serve.Fabric
	var window sim.Time
	var cpuBase sim.Time
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
		cpuBase = stackCPU(f)
		window = sim.Time(scale.pick(20, 60)) * sim.Millisecond
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
	tot := fab.Stats().Totals()
	run.servedPerSec = float64(tot.Served) / window.Seconds()
	run.rejected = tot.Rejected
	run.lsP99 = lat.Hist("point-reads").P99()
	if tot.Served > 0 {
		run.cpuPerOpNs = float64(stackCPU(fab)-cpuBase) / float64(tot.Served)
	}
	run.leaks = fab.Tracer().Opened() - fab.Tracer().Closed()
	run.overruns = fab.Tracer().Overruns()
	if sample {
		dump := fab.Sampler().Dump()
		var keep []obs.SeriesData
		for _, s := range dump.Series {
			if strings.HasPrefix(s.Name, "fabric.throughput.") {
				keep = append(keep, s)
			}
		}
		dump.Series = keep
		run.series = &dump
	}
	return run, nil
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
