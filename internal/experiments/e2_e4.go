package experiments

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// E2GCInterference regenerates the Figure 2 discussion: GC and wear
// leveling "interfere with the IOs submitted by the applications".
// Read latency is measured on an idle device, then on the same device
// while sustained random overwrites keep GC running.
func E2GCInterference(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E2",
		Title: "Figure 2 — GC traffic interferes with host I/O",
		Claim: "garbage collection and wear leveling operations interfere with the IOs submitted by the applications",
	}
	eng := sim.NewEngine()
	opt := smallOptions(scale)
	opt.BufferPages = -1 // write-through so GC pressure is direct
	opt.OverProvision = 0.12
	d, err := ssd.Build(eng, ssd.Enterprise2012, opt)
	if err != nil {
		return nil, err
	}
	dev := d.(*ssd.Device)
	span := dev.Capacity()
	rng := sim.NewRNG(42)

	// Fill the device once.
	nFill := int(span)
	drive(eng, dev, nFill, 8, func(i int) (bool, int64) { return true, int64(i) % span })

	// Phase A: reads on an idle device.
	dev.Metrics().Reset()
	nReads := scale.pick(800, 8000)
	drive(eng, dev, nReads, 4, func(i int) (bool, int64) { return false, rng.Int63n(span) })
	idle := dev.Metrics().ReadLat.Clone() // the Reset below reuses its buckets

	// Phase B: the same reads with concurrent random overwrites
	// (GC constantly reclaiming).
	dev.Metrics().Reset()
	gcBefore := dev.FTL().Stats().GCErases
	drive(eng, dev, nReads*2, 8, func(i int) (bool, int64) {
		if i%2 == 0 {
			return true, rng.Int63n(span)
		}
		return false, rng.Int63n(span)
	})
	busy := dev.Metrics().ReadLat
	gcErases := dev.FTL().Stats().GCErases - gcBefore

	t := metrics.NewTable("Random-read latency, idle vs under GC (µs)",
		"phase", "p50", "p99", "max", "GC erases")
	t.AddRow("idle device", us(idle.P50()), us(idle.P99()), us(idle.Max()), 0)
	t.AddRow("under random writes + GC", us(busy.P50()), us(busy.P99()), us(busy.Max()), gcErases)
	res.Tables = append(res.Tables, t)
	res.Finding = fmt.Sprintf("read p99 %.0fµs idle -> %.0fµs with GC running (max %.1fms, stalled behind erases)",
		float64(idle.P99())/1e3, float64(busy.P99())/1e3, float64(busy.Max())/1e6)
	res.Headline = map[string]float64{
		"idle_read_p99_us": float64(idle.P99()) / 1e3,
		"busy_read_p99_us": float64(busy.P99()) / 1e3,
		"busy_read_max_ms": float64(busy.Max()) / 1e6,
		"gc_erases":        float64(gcErases),
	}
	return res, nil
}

// E3ChipVsSSD regenerates Myth 1: a chip's latencies are datasheet
// constants; a device's latencies are load- and history-dependent
// distributions, so "SSDs behave as the non-volatile memory they
// contain" is false.
func E3ChipVsSSD(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E3",
		Title: "Myth 1 — an SSD is not the chip it contains",
		Claim: "SSDs do not behave as the non-volatile memory they contain",
	}
	// Chip level: constants by construction.
	eng := sim.NewEngine()
	chip, err := nand.NewChip(eng, nand.MLC, nil, "bare")
	if err != nil {
		return nil, err
	}
	var chipRead, chipProg metrics.Histogram
	n := scale.pick(50, 200)
	for i := 0; i < n; i++ {
		a := nand.Addr{Block: i % 64, Page: 0}
		if i >= 64 {
			a.Block = i % 64
			a.Page = i / 64
		}
		start := eng.Now()
		if err := chip.Program(a, nil, nil, func(bool) { chipProg.Record(int64(eng.Now() - start)) }); err != nil {
			return nil, err
		}
		eng.Run()
		start = eng.Now()
		if err := chip.Read(a, func(nand.ReadResult, error) { chipRead.Record(int64(eng.Now() - start)) }); err != nil {
			return nil, err
		}
		eng.Run()
	}

	// Device level: a loaded, history-laden SSD.
	eng2 := sim.NewEngine()
	opt := smallOptions(scale)
	opt.OverProvision = 0.12
	d, err := ssd.Build(eng2, ssd.Enterprise2012, opt)
	if err != nil {
		return nil, err
	}
	dev := d.(*ssd.Device)
	span := dev.Capacity()
	rng := sim.NewRNG(7)
	drive(eng2, dev, int(span), 8, func(i int) (bool, int64) { return true, int64(i) % span })
	dev.Metrics().Reset()
	ops := scale.pick(2000, 20000)
	drive(eng2, dev, ops, 8, func(i int) (bool, int64) {
		return i%3 != 0, rng.Int63n(span)
	})
	m := dev.Metrics()

	t := metrics.NewTable("Latency: raw chip vs whole SSD (µs)",
		"level", "op", "min", "p50", "p99", "max", "max/min")
	ratio := func(h *metrics.Histogram) string {
		if h.Min() == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", float64(h.Max())/float64(h.Min()))
	}
	t.AddRow("chip", "read", us(chipRead.Min()), us(chipRead.P50()), us(chipRead.P99()), us(chipRead.Max()), ratio(&chipRead))
	t.AddRow("chip", "program", us(chipProg.Min()), us(chipProg.P50()), us(chipProg.P99()), us(chipProg.Max()), ratio(&chipProg))
	t.AddRow("SSD", "read", us(m.ReadLat.Min()), us(m.ReadLat.P50()), us(m.ReadLat.P99()), us(m.ReadLat.Max()), ratio(&m.ReadLat))
	t.AddRow("SSD", "write", us(m.WriteLat.Min()), us(m.WriteLat.P50()), us(m.WriteLat.P99()), us(m.WriteLat.Max()), ratio(&m.WriteLat))
	res.Tables = append(res.Tables, t)
	res.Finding = fmt.Sprintf(
		"chip ops are constants (read always %.0fµs); device ops spread %s for reads and %s for writes under load",
		float64(chipRead.Max())/1e3, ratio(&m.ReadLat), ratio(&m.WriteLat))
	spread := func(h *metrics.Histogram) float64 {
		if h.Min() == 0 {
			return 0
		}
		return float64(h.Max()) / float64(h.Min())
	}
	res.Headline = map[string]float64{
		"chip_read_us":       float64(chipRead.Max()) / 1e3,
		"ssd_read_spread_x":  spread(&m.ReadLat),
		"ssd_write_spread_x": spread(&m.WriteLat),
	}
	return res, nil
}

// E4Bimodal reproduces the authors' self-criticism of their bimodal FTL
// [4]: exposing chip placement to the host (static, address-determined
// placement) forfeits the scheduler freedom that makes writes fast and
// balanced.
func E4Bimodal(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E4",
		Title: "Myth 1b — exposing chip placement to the host is a mistake",
		Claim: "exposing flash chip constraints through the block layer would limit the controller's ability to schedule writes on multiple chips",
	}
	run := func(placement ftl.Placement, skew bool) (sim.Time, []int64, error) {
		eng := sim.NewEngine()
		opt := smallOptions(scale)
		opt.Placement = placement
		opt.BufferPages = -1
		d, err := ssd.Build(eng, ssd.Enterprise2012, opt)
		if err != nil {
			return 0, nil, err
		}
		dev := d.(*ssd.Device)
		n := scale.pick(400, 4000)
		chips := dev.Array().Chips()
		elapsed := drive(eng, dev, n, 2*chips, func(i int) (bool, int64) {
			lpn := int64(i)
			if skew {
				// The host "knows better": it maps its hot file onto
				// addresses that all collide on one chip under static
				// placement.
				lpn = int64(i) * int64(chips)
			}
			return true, lpn % dev.Capacity()
		})
		counts := make([]int64, chips)
		for c := 0; c < chips; c++ {
			counts[c] = dev.Array().Chip(c).Stats().Programs
		}
		return elapsed, counts, nil
	}

	t := metrics.NewTable("Host-pinned (static) vs device-scheduled (dynamic) writes",
		"placement", "address pattern", "elapsed(ms)", "programs per chip")
	type cfg struct {
		p    ftl.Placement
		skew bool
		name string
		pat  string
	}
	var worst, best sim.Time
	for _, c := range []cfg{
		{ftl.PlaceDynamic, false, "device-scheduled", "sequential"},
		{ftl.PlaceStatic, false, "host-pinned", "sequential"},
		{ftl.PlaceDynamic, true, "device-scheduled", "chip-colliding"},
		{ftl.PlaceStatic, true, "host-pinned", "chip-colliding"},
	} {
		elapsed, counts, err := run(c.p, c.skew)
		if err != nil {
			return nil, err
		}
		if c.p == ftl.PlaceStatic && c.skew {
			worst = elapsed
		}
		if c.p == ftl.PlaceDynamic && c.skew {
			best = elapsed
		}
		t.AddRow(c.name, c.pat, fmt.Sprintf("%.2f", elapsed.Millis()), fmt.Sprintf("%v", counts))
	}
	res.Tables = append(res.Tables, t)
	res.Finding = fmt.Sprintf(
		"on the colliding pattern, host-pinned placement is %.1fx slower than device scheduling (all programs on one chip)",
		float64(worst)/float64(best))
	res.Headline = map[string]float64{
		"static_vs_dynamic_slowdown_x": float64(worst) / float64(best),
		"static_colliding_ms":          worst.Millis(),
		"dynamic_colliding_ms":         best.Millis(),
	}
	return res, nil
}
