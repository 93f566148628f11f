package experiments

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/ecc"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// E7ReadTailLatency regenerates Myth 3a: writes hide behind the safe
// cache but reads cannot; a read behind a busy LUN waits — up to a full
// erase (~3ms).
func E7ReadTailLatency(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E7",
		Title: "Myth 3 — reads are not cheaper than writes at device level",
		Claim: "read latency cannot hide behind a cache; a read may wait e.g. 3ms for an erase on its LUN",
	}
	eng := sim.NewEngine()
	opt := smallOptions(scale)
	opt.OverProvision = 0.12
	opt.BufferPages = 512
	d, err := ssd.Build(eng, ssd.Enterprise2012, opt)
	if err != nil {
		return nil, err
	}
	dev := d.(*ssd.Device)
	span := dev.Capacity()
	rng := sim.NewRNG(23)
	// Fill the span, and write again as many pages as the buffer holds
	// back, so that GC begins early in the window whatever the buffer's
	// occupancy: the window measures a buffered device under GC.
	fill := int(span) + opt.BufferPages
	drive(eng, dev, fill, 8, func(i int) (bool, int64) { return true, int64(i) % span })
	dev.Metrics().Reset()
	// Mixed workload: 25% random overwrites (absorbed by the safe cache,
	// but keeping GC busy) and 75% random reads that must touch flash.
	n := scale.pick(4000, 30000)
	drive(eng, dev, n, 8, func(i int) (bool, int64) {
		return i%4 == 0, rng.Int63n(span)
	})
	m := dev.Metrics()
	t := metrics.NewTable("Mixed workload latency, buffered device under GC (µs)",
		"op", "p50", "p99", "max")
	t.AddRow("write (cache-acked)", us(m.WriteLat.P50()), us(m.WriteLat.P99()), us(m.WriteLat.Max()))
	t.AddRow("read (must touch flash)", us(m.ReadLat.P50()), us(m.ReadLat.P99()), us(m.ReadLat.Max()))
	res.Tables = append(res.Tables, t)

	chipRead := float64(nand.MLC.Timing.ReadPage) / 1e3
	res.Finding = fmt.Sprintf(
		"chip-level reads are %.0fµs, yet device read p99 = %.0fµs and max = %.2fms (erase stalls), while buffered write p99 = %.0fµs — reads are the expensive op",
		chipRead, float64(m.ReadLat.P99())/1e3, float64(m.ReadLat.Max())/1e6, float64(m.WriteLat.P99())/1e3)
	res.Headline = map[string]float64{
		"chip_read_us": chipRead,
		"read_p99_us":  float64(m.ReadLat.P99()) / 1e3,
		"read_max_ms":  float64(m.ReadLat.Max()) / 1e6,
		"write_p99_us": float64(m.WriteLat.P99()) / 1e3,
	}
	return res, nil
}

// E8ReadVsWriteParallelism regenerates Myth 3b: reads only parallelize
// if earlier writes scattered the data; writes always parallelize
// because the scheduler is free to place them.
func E8ReadVsWriteParallelism(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E8",
		Title: "Myth 3b — reads inherit placement, writes choose it",
		Claim: "reads benefit from parallelism only if the corresponding writes were directed to different LUNs; there is no guarantee for this",
	}
	t := metrics.NewTable("Read vs write bandwidth under placement collision",
		"placement of data", "access pattern", "op", "MB/s")

	run := func(placement ftl.Placement, collide bool, readBack bool) (float64, error) {
		eng := sim.NewEngine()
		opt := smallOptions(scale)
		opt.Placement = placement
		opt.BufferPages = -1
		d, err := ssd.Build(eng, ssd.Enterprise2012, opt)
		if err != nil {
			return 0, err
		}
		dev := d.(*ssd.Device)
		chips := int64(dev.Array().Chips())
		n := scale.pick(400, 4000)
		lpnOf := func(i int) int64 {
			if collide {
				return (int64(i) * chips) % dev.Capacity()
			}
			return int64(i) % dev.Capacity()
		}
		// Write the working set.
		elapsed := drive(eng, dev, n, 2*int(chips), func(i int) (bool, int64) { return true, lpnOf(i) })
		if !readBack {
			return mbps(dev.Metrics().Writes.Bytes, elapsed), nil
		}
		dev.Metrics().Reset()
		elapsed = drive(eng, dev, n, 2*int(chips), func(i int) (bool, int64) { return false, lpnOf(i) })
		return mbps(dev.Metrics().Reads.Bytes, elapsed), nil
	}

	// Static placement + colliding addresses: reads serialize on one
	// chip. The same write stream is absorbed by dynamic scheduling.
	collidedReads, err := run(ftl.PlaceStatic, true, true)
	if err != nil {
		return nil, err
	}
	scatteredReads, err := run(ftl.PlaceStatic, false, true)
	if err != nil {
		return nil, err
	}
	collidedWrites, err := run(ftl.PlaceDynamic, true, false)
	if err != nil {
		return nil, err
	}
	seqWrites, err := run(ftl.PlaceDynamic, false, false)
	if err != nil {
		return nil, err
	}
	t.AddRow("striped over all LUNs", "sequential", "read", fmt.Sprintf("%.1f", scatteredReads))
	t.AddRow("collided on one LUN", "strided", "read", fmt.Sprintf("%.1f", collidedReads))
	t.AddRow("device-scheduled", "sequential", "write", fmt.Sprintf("%.1f", seqWrites))
	t.AddRow("device-scheduled", "strided", "write", fmt.Sprintf("%.1f", collidedWrites))
	res.Tables = append(res.Tables, t)
	res.Finding = fmt.Sprintf(
		"reads collapse %.1fx when their data sits on one LUN (%.1f -> %.1f MB/s); write bandwidth is pattern-independent (%.1f vs %.1f MB/s) because the scheduler can redirect writes but never reads",
		scatteredReads/collidedReads, scatteredReads, collidedReads, seqWrites, collidedWrites)
	res.Headline = map[string]float64{
		"read_collapse_x":      scatteredReads / collidedReads,
		"scattered_reads_mbps": scatteredReads,
		"collided_reads_mbps":  collidedReads,
		"seq_writes_mbps":      seqWrites,
		"collided_writes_mbps": collidedWrites,
	}
	return res, nil
}

// E9ChannelChipScaling regenerates Myth 3c: reads tend channel-bound so
// read bandwidth scales with channels; writes tend chip-bound so write
// bandwidth scales with chips per channel.
func E9ChannelChipScaling(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E9",
		Title: "Myth 3c — reads scale with channels, writes with chips",
		Claim: "reads tend to be channel-bound while writes tend to be chip-bound, and channel parallelism is much more limited than chip parallelism",
	}
	t := metrics.NewTable("Raw array bandwidth vs fabric shape (MB/s)",
		"channels", "chips/channel", "read MB/s", "write MB/s")

	run := func(channels, perChan int) (float64, float64, error) {
		measure := func(write bool) (float64, error) {
			eng := sim.NewEngine()
			spec := nand.MLC
			spec.Geometry.BlocksPerPlane = 64
			spec.Reliability.FactoryBadBlockRate = 0
			arr, err := ftl.NewArray(eng, ftl.ArrayConfig{
				Channels: channels, ChipsPerChannel: perChan,
				Chip: spec, Channel: bus.ONFI2,
			}, 0)
			if err != nil {
				return 0, err
			}
			cfg := ftl.DefaultConfig()
			cfg.BufferPages = 0
			cfg.OverProvision = 0.1
			cfg.ECC = ecc.BCH8Per512
			f, err := ftl.NewPageFTL(arr, cfg)
			if err != nil {
				return 0, err
			}
			n := scale.pick(300, 3000)
			span := f.Capacity()
			if !write {
				// Preload for reads (striped by the dynamic allocator).
				done := 0
				for i := 0; i < n; i++ {
					f.WriteLPN(int64(i)%span, nil, func(error) { done++ })
				}
				eng.Run()
			}
			qd := 2 * channels * perChan
			issued, completed := 0, 0
			start := eng.Now()
			var submit func()
			submit = func() {
				if issued >= n {
					return
				}
				lpn := int64(issued) % span
				issued++
				if write {
					f.WriteLPN(lpn, nil, func(error) { completed++; submit() })
				} else {
					f.ReadLPN(lpn, func([]byte, error) { completed++; submit() })
				}
			}
			for k := 0; k < qd && k < n; k++ {
				submit()
			}
			eng.Run()
			elapsed := eng.Now() - start
			return mbps(int64(n)*int64(arr.PageSize()), elapsed), nil
		}
		r, err := measure(false)
		if err != nil {
			return 0, 0, err
		}
		w, err := measure(true)
		if err != nil {
			return 0, 0, err
		}
		return r, w, nil
	}

	type cell struct{ r, w float64 }
	grid := map[[2]int]cell{}
	shapes := [][2]int{{1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 2}, {4, 1}, {4, 4}}
	for _, s := range shapes {
		r, w, err := run(s[0], s[1])
		if err != nil {
			return nil, err
		}
		grid[s] = cell{r, w}
		t.AddRow(s[0], s[1], fmt.Sprintf("%.1f", r), fmt.Sprintf("%.1f", w))
	}
	res.Tables = append(res.Tables, t)

	readChanScale := grid[[2]int{4, 1}].r / grid[[2]int{1, 1}].r
	readChipScale := grid[[2]int{1, 4}].r / grid[[2]int{1, 1}].r
	writeChipScale := grid[[2]int{1, 4}].w / grid[[2]int{1, 1}].w
	writeChanScale := grid[[2]int{4, 1}].w / grid[[2]int{1, 1}].w
	res.Finding = fmt.Sprintf(
		"4x channels: reads x%.1f, writes x%.1f; 4x chips on one channel: reads x%.1f, writes x%.1f — reads need channels, writes need chips",
		readChanScale, writeChanScale, readChipScale, writeChipScale)
	res.Headline = map[string]float64{
		"read_chan_scale_x":  readChanScale,
		"read_chip_scale_x":  readChipScale,
		"write_chan_scale_x": writeChanScale,
		"write_chip_scale_x": writeChipScale,
	}
	return res, nil
}
