package experiments

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/sim"
)

// E1Figure1 regenerates the paper's Figure 1: four chips behind one
// shared channel; four parallel reads serialize on the channel
// (channel-bound), four parallel writes serialize only their transfers
// and program in parallel (chip-bound).
func E1Figure1(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E1",
		Title: "Figure 1 — channel-bound reads vs chip-bound writes",
		Claim: "four parallel reads on one channel are channel-bound; four parallel writes are chip-bound",
	}
	run := func(write bool) (sim.Time, float64, float64, *metrics.Gantt, error) {
		eng := sim.NewEngine()
		arr, err := ftl.NewArray(eng, ftl.ArrayConfig{
			Channels:        1,
			ChipsPerChannel: 4,
			Chip:            nand.MLC,
			Channel:         bus.ONFI2,
		}, 0)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		// Pre-program one page per chip so reads have a target.
		for c := 0; c < 4; c++ {
			arr.WritePage(arr.MakePPA(c, nand.Addr{}), nil, nil, func(bool) {})
		}
		eng.Run()

		// Trace from a clean instant.
		chText := arr.Channel(0).Server()
		chText.StartTrace()
		var lunSrvs []*sim.Server
		for c := 0; c < 4; c++ {
			s := arr.Chip(c).LUNServer(0)
			s.StartTrace()
			lunSrvs = append(lunSrvs, s)
		}
		start := eng.Now()
		remaining := 4
		for c := 0; c < 4; c++ {
			if write {
				arr.WritePage(arr.MakePPA(c, nand.Addr{Page: 1}), nil, nil, func(bool) { remaining-- })
			} else {
				arr.ReadPage(arr.MakePPA(c, nand.Addr{}), func([]byte, int, error) { remaining-- })
			}
		}
		eng.Run()
		if remaining != 0 {
			return 0, 0, 0, nil, fmt.Errorf("experiments: %d ops never completed", remaining)
		}
		makespan := eng.Now() - start
		chanUtil := chText.Utilization()
		var chipBusy sim.Time
		for _, s := range lunSrvs {
			chipBusy += s.Busy()
		}
		chipUtil := float64(chipBusy) / float64(4*makespan)

		g := metrics.NewGantt(64)
		g.AddLane("channel", spans(chText.Trace()))
		for c, s := range lunSrvs {
			g.AddLane(fmt.Sprintf("chip%d", c), spans(s.Trace()))
		}
		return makespan, chanUtil, chipUtil, g, nil
	}

	readSpan, readChanU, readChipU, readG, err := run(false)
	if err != nil {
		return nil, err
	}
	writeSpan, writeChanU, writeChipU, writeG, err := run(true)
	if err != nil {
		return nil, err
	}

	res.Figures = append(res.Figures,
		"Four parallel reads (one channel, four chips):\n"+readG.String(),
		"Four parallel writes (one channel, four chips):\n"+writeG.String())

	t := metrics.NewTable("Figure 1 quantified",
		"op", "makespan(µs)", "channel util", "avg chip util", "bound by")
	boundBy := func(chanU, chipU float64) string {
		if chanU > chipU {
			return "channel"
		}
		return "chip"
	}
	t.AddRow("4 parallel reads", fmt.Sprintf("%.1f", readSpan.Micros()), readChanU, readChipU, boundBy(readChanU, readChipU))
	t.AddRow("4 parallel writes", fmt.Sprintf("%.1f", writeSpan.Micros()), writeChanU, writeChipU, boundBy(writeChanU, writeChipU))
	res.Tables = append(res.Tables, t)
	res.Finding = fmt.Sprintf(
		"reads: channel util %.0f%% > chip util %.0f%% (channel-bound); writes: chip util %.0f%% > channel util %.0f%% (chip-bound)",
		readChanU*100, readChipU*100, writeChipU*100, writeChanU*100)
	res.Headline = map[string]float64{
		"read_makespan_us":  readSpan.Micros(),
		"write_makespan_us": writeSpan.Micros(),
		"read_chan_util":    readChanU,
		"read_chip_util":    readChipU,
		"write_chan_util":   writeChanU,
		"write_chip_util":   writeChipU,
	}
	_ = scale
	return res, nil
}

func spans(ivs []sim.Interval) []metrics.GanttSpan {
	out := make([]metrics.GanttSpan, 0, len(ivs))
	for _, iv := range ivs {
		out = append(out, metrics.GanttSpan{Start: int64(iv.Start), End: int64(iv.End), Label: iv.Label})
	}
	return out
}
