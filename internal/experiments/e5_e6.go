package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// E5RandVsSeqWrites regenerates Myth 2's death: on a pre-2009 hybrid
// FTL, random writes collapse; on a 2012 page-mapped write-buffered
// device, random ≈ sequential.
func E5RandVsSeqWrites(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E5",
		Title: "Myth 2 — random vs sequential writes across device generations",
		Claim: "random writes were costly on pre-2009 devices; on modern SSDs they are as fast as sequential writes",
	}
	presets := []ssd.Preset{ssd.Consumer2008, ssd.Enterprise2012, ssd.Enterprise2012Unbuffered, ssd.DFTL2012}
	t := metrics.NewTable("Write performance by device generation and pattern",
		"device", "pattern", "MB/s", "avg lat(µs)", "p99 lat(µs)", "rand/seq slowdown")

	var consumerRatio, enterpriseRatio float64
	for _, p := range presets {
		var perPattern [2]float64 // MB/s for SW, RW
		var rows [2][]interface{}
		for pi, pattern := range []workload.Pattern{workload.SW, workload.RW} {
			eng := sim.NewEngine()
			opt := smallOptions(scale)
			d, err := ssd.Build(eng, p, opt)
			if err != nil {
				return nil, err
			}
			span := d.Capacity() * 3 / 4
			gen, err := workload.NewGenerator(pattern, span, 11)
			if err != nil {
				return nil, err
			}
			// Precondition: fill once sequentially so overwrites are real.
			drive(eng, d, int(span), 8, func(i int) (bool, int64) { return true, int64(i) % span })
			d.Metrics().Reset()
			n := scale.pick(600, 6000)
			elapsed := drive(eng, d, n, 8, func(i int) (bool, int64) {
				return true, gen.Next().LPN
			})
			m := d.Metrics()
			bw := mbps(m.Writes.Bytes, elapsed)
			perPattern[pi] = bw
			rows[pi] = []interface{}{p.String(), pattern.String(), fmt.Sprintf("%.1f", bw),
				us(int64(m.WriteLat.Mean())), us(m.WriteLat.P99())}
		}
		slowdown := perPattern[0] / perPattern[1]
		for pi, row := range rows {
			s := "-"
			if pi == 1 {
				s = fmt.Sprintf("%.1fx", slowdown)
			}
			t.AddRow(append(row, s)...)
		}
		switch p {
		case ssd.Consumer2008:
			consumerRatio = slowdown
		case ssd.Enterprise2012:
			enterpriseRatio = slowdown
		}
	}
	res.Tables = append(res.Tables, t)
	res.Finding = fmt.Sprintf(
		"random writes are %.0fx slower than sequential on the 2008 hybrid-FTL device, but only %.1fx on the 2012 page-mapped buffered device",
		consumerRatio, enterpriseRatio)
	res.Headline = map[string]float64{
		"consumer2008_rand_slowdown_x":   consumerRatio,
		"enterprise2012_rand_slowdown_x": enterpriseRatio,
	}
	return res, nil
}

// E6WriteAmplification quantifies the paper's "topic for future work":
// random writes hurt garbage collection because locality is invisible
// to the FTL — live pages scatter and write amplification rises.
func E6WriteAmplification(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E6",
		Title: "Myth 2b — random writes raise GC write amplification",
		Claim: "random writes have a negative impact on garbage collection, as locality is impossible to detect for the FTL",
	}
	t := metrics.NewTable("Steady-state write amplification (page-mapped FTL, write-through)",
		"pattern", "over-provision", "write amp", "GC moves/write")

	patterns := []workload.Pattern{workload.SW, workload.RW, workload.ZW}
	ops := []float64{0.12, 0.28}

	var seqWA, randWA float64
	for _, pattern := range patterns {
		for _, op := range ops {
			eng := sim.NewEngine()
			opt := smallOptions(scale)
			opt.BufferPages = -1
			opt.OverProvision = op
			d, err := ssd.Build(eng, ssd.Enterprise2012, opt)
			if err != nil {
				return nil, err
			}
			dev := d.(*ssd.Device)
			span := dev.Capacity()
			gen, err := workload.NewGenerator(pattern, span, 17)
			if err != nil {
				return nil, err
			}
			// Fill, then overwrite several drive-capacities to reach
			// steady state.
			drive(eng, dev, int(span), 8, func(i int) (bool, int64) { return true, int64(i) % span })
			rounds := scale.pick(3, 8)
			n := int(span) * rounds
			startPrograms := dev.Array().PagePrograms + dev.Array().CopyBacks
			startMoves := dev.FTL().Stats().GCMoves
			startWrites := dev.FTL().Stats().HostWrites
			drive(eng, dev, n, 8, func(i int) (bool, int64) { return true, gen.Next().LPN })
			hostW := dev.FTL().Stats().HostWrites - startWrites
			wa := float64(dev.Array().PagePrograms+dev.Array().CopyBacks-startPrograms) / float64(hostW)
			movesPerWrite := float64(dev.FTL().Stats().GCMoves-startMoves) / float64(hostW)
			t.AddRow(pattern.String(), fmt.Sprintf("%.0f%%", op*100),
				fmt.Sprintf("%.2f", wa), fmt.Sprintf("%.2f", movesPerWrite))
			if op == 0.12 {
				if pattern == workload.SW {
					seqWA = wa
				}
				if pattern == workload.RW {
					randWA = wa
				}
			}
		}
	}
	res.Tables = append(res.Tables, t)
	res.Finding = fmt.Sprintf("at 12%% OP, sequential overwrite WA = %.2f but uniform random WA = %.2f — the FTL cannot see locality in random streams",
		seqWA, randWA)
	res.Headline = map[string]float64{
		"seq_wa":  seqWA,
		"rand_wa": randWA,
	}
	return res, nil
}
