package experiments

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// E15TenantIsolation measures what the paper's communication
// abstraction buys a multi-tenant host: one latency-sensitive tenant
// shares a flash device with 1/4/16 noisy neighbors, through each of
// the three stacks, first FIFO (the block-device world: every request
// is an undifferentiated block op) and then under the internal/sched
// arbiter (tenant classes, weighted fair queueing, GC-aware deferral
// fed by device-to-host GC notifications). The block interface cannot
// express any of this; the replacement interface schedules with it.
func E15TenantIsolation(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E15",
		Title: "multi-tenant isolation — scheduling above the communication abstraction",
		Claim: "host/device co-design enables scheduling the block interface cannot: per-tenant arbitration plus device GC state keep a latency-sensitive tenant's tail flat under noisy neighbors",
	}
	t := metrics.NewTable("Latency-sensitive tenant read latency vs noisy write neighbors (µs)",
		"stack", "neighbors", "fifo p50", "fifo p99", "sched p50", "sched p99", "p99 gain")

	neighborCounts := []int{1, 4, 16}

	var worst16Gain = 1e18
	var showFIFO, showSched *metrics.TenantLatencies
	var showDeferrals int64
	for _, mode := range stackModes {
		for _, n := range neighborCounts {
			fifo, err := runTenantMix(scale, mode, n, false)
			if err != nil {
				return nil, err
			}
			schd, err := runTenantMix(scale, mode, n, true)
			if err != nil {
				return nil, err
			}
			fp50, fp99 := fifo.lat.Hist(lsTenant).P50(), fifo.lat.Hist(lsTenant).P99()
			sp50, sp99 := schd.lat.Hist(lsTenant).P50(), schd.lat.Hist(lsTenant).P99()
			gain := float64(fp99) / float64(sp99)
			t.AddRow(mode.String(), n, us(fp50), us(fp99), us(sp50), us(sp99),
				fmt.Sprintf("%.2fx", gain))
			if n == 16 {
				if gain < worst16Gain {
					worst16Gain = gain
				}
				if mode == blockdev.MultiQueue {
					showFIFO, showSched = fifo.lat, schd.lat
					showDeferrals = schd.gcDeferrals
				}
			}
		}
	}
	res.Tables = append(res.Tables, t)
	if showFIFO != nil {
		res.Tables = append(res.Tables,
			showFIFO.Table("Per-tenant latency, MultiQueue, 16 neighbors, FIFO"),
			showSched.Table("Per-tenant latency, MultiQueue, 16 neighbors, scheduled"))
	}
	res.Finding = fmt.Sprintf(
		"under 16 noisy neighbors the scheduled stack holds the latency-sensitive p99 at least %.1fx lower than FIFO on every stack mode (GC-aware deferrals fired %d times on the multi-queue run)",
		worst16Gain, showDeferrals)
	res.Headline = map[string]float64{
		"worst_p99_gain_16":    worst16Gain,
		"mq_gc_deferrals_16":   float64(showDeferrals),
		"neighbor_counts_run":  float64(len(neighborCounts)),
		"stack_modes_compared": float64(len(stackModes)),
	}
	if showFIFO != nil {
		res.Headline["mq_fifo_p99_us_16"] = float64(showFIFO.Hist(lsTenant).P99()) / 1e3
		res.Headline["mq_sched_p99_us_16"] = float64(showSched.Hist(lsTenant).P99()) / 1e3
	}
	return res, nil
}

// lsTenant is the latency-sensitive tenant's label in NoisyNeighborMix.
const lsTenant = "ls-reader"

// tenantRun is one E15 configuration's outcome.
type tenantRun struct {
	lat         *metrics.TenantLatencies
	gcDeferrals int64
}

// runTenantMix replays the noisy-neighbor mix through one stack mode,
// FIFO or scheduled, and returns per-tenant end-to-end latencies. All
// noisy neighbors share one "noisy" histogram so tables stay readable
// at 16 tenants.
func runTenantMix(scale Scale, mode blockdev.Mode, neighbors int, scheduled bool) (*tenantRun, error) {
	eng := sim.NewEngine()
	// Unbuffered flash: writes pay real program latency and trigger GC,
	// the interference a write cache would only postpone.
	dev, err := ssd.Build(eng, ssd.Enterprise2012Unbuffered, smallOptions(scale))
	if err != nil {
		return nil, err
	}
	specs := workload.NoisyNeighborMix(neighbors)

	// Keep the device queue shallow: what the host has already handed
	// to the device it can no longer reorder, so scheduling power lives
	// above a short queue (one request per chip of parallelism). Deep
	// queues are the block-device reflex — push everything down and let
	// the black box sort it out — and they forfeit exactly the
	// arbitration this experiment measures.
	// One submit core per driving process (the open-loop reader plus
	// Depth closed-loop procs per neighbor), so no neighbor shares the
	// latency tenant's core and CPU queueing stays out of the numbers.
	cores := 0
	for _, spec := range specs {
		if spec.ThinkTime > 0 {
			cores++
		} else {
			cores += spec.Depth
		}
	}
	cfg := blockdev.DefaultConfig(mode)
	cfg.CPUs = cores
	cfg.QueueDepth = 4
	// Bill writes near the MLC program/read service-time ratio
	// (1300µs / 75µs), so DRR shares device time rather than op count.
	cfg.WriteCost = 16
	stack, err := blockdev.New(eng, dev, cfg)
	if err != nil {
		return nil, err
	}

	var sc *sched.Scheduler
	tenants := make([]*sched.Tenant, len(specs))
	if scheduled {
		sc = sched.New(eng, sched.DefaultConfig())
		for i, spec := range specs {
			class := sched.Throughput
			if spec.LatencySensitive {
				class = sched.LatencySensitive
			}
			tenants[i] = sc.AddTenant(spec.Name, class, spec.Weight)
		}
		stack.AttachScheduler(sc)
		if d, ok := dev.(*ssd.Device); ok {
			if err := d.SetGCNotifier(sc.SetGCActiveChips); err != nil {
				return nil, err
			}
		}
	}

	// Precondition: map 3/4 of the device so reads hit flash, then a
	// random overwrite pass to fill blocks with garbage and pull the
	// free pool down to the GC watermarks — so the measured window runs
	// with garbage collection live, the interference source the
	// GC-aware policy exists for.
	span := dev.Capacity() * 3 / 4
	drive(eng, dev, int(span), 16, func(i int) (bool, int64) { return true, int64(i) % span })
	prng := sim.NewRNG(uint64(neighbors)*31 + 7)
	drive(eng, dev, int(span), 16, func(i int) (bool, int64) { return true, prng.Int63n(span) })

	lat := metrics.NewTenantLatencies()
	// The window must be long enough for the neighbors' writes to pull
	// the free pool below the GC low watermark, so part of it runs with
	// device GC live.
	horizon := eng.Now() + sim.Time(scale.pick(60, 200))*sim.Millisecond
	cpu := 0
	for i, spec := range specs {
		spec := spec
		tenant := tenants[i]
		label := spec.Name
		if !spec.LatencySensitive {
			label = "noisy"
		}
		gen, err := workload.NewTenantGenerator(spec, span)
		if err != nil {
			return nil, err
		}
		if spec.ThinkTime > 0 {
			// Open loop: issue on the clock regardless of completions —
			// the tenant whose tail latency is the product metric.
			c := cpu
			cpu++
			eng.Go(func(p *sim.Proc) {
				for p.Now() < horizon {
					a := gen.Next()
					op := blockdev.OpRead
					if a.Kind == workload.Write {
						op = blockdev.OpWrite
					}
					t0 := p.Now()
					stack.Submit(c, blockdev.Request{Op: op, LPN: a.LPN, Tenant: tenant,
						Done: func([]byte, error) { lat.Record(label, int64(eng.Now()-t0)) }})
					p.Sleep(spec.ThinkTime)
				}
			})
			continue
		}
		// Closed loop at the spec's depth: the noisy neighbors.
		for d := 0; d < spec.Depth; d++ {
			c := cpu
			cpu++
			eng.Go(func(p *sim.Proc) {
				for p.Now() < horizon {
					a := gen.Next()
					t0 := p.Now()
					var err error
					if a.Kind == workload.Write {
						err = stack.WriteSyncAs(p, tenant, c, a.LPN, nil)
					} else {
						_, err = stack.ReadSyncAs(p, tenant, c, a.LPN)
					}
					if err != nil {
						return
					}
					lat.Record(label, int64(p.Now()-t0))
				}
			})
		}
	}
	eng.Run()
	run := &tenantRun{lat: lat}
	if sc != nil {
		run.gcDeferrals = sc.GCDeferrals
	}
	return run, nil
}
