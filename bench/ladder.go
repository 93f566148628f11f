package main

import "fmt"

// ladderFactors are the rungs of the kv_open rate ladder, as multiples
// of the workload's fixed rate.
var ladderFactors = []struct {
	name   string
	factor float64
}{{"r050", 0.5}, {"r100", 1.0}, {"r150", 1.5}, {"r200", 2.0}}

// ladder replays the kv_open traffic at half, one, one and a half and
// two times its fixed rate (the last rung is past the knee) and reports each rung's read p99 and the highest
// rate that held the fabric's deadlines (read p99 within 2 ms, write
// p99 within 20 ms) without a backlog that grows from the window's
// first half to its second. Zero means no rung did.
func ladder(seed uint64, sz sizing) ([]metric, []string, error) {
	var ms []metric
	var lines []string
	best := 0.0
	for _, lf := range ladderFactors {
		rate := lf.factor * kvOpenRate
		shape := func(small bool) kvShape {
			s := kvOpen(small)
			s.ratePerS = rate
			return s
		}
		p, err := runPass(buildKV(shape), seed, sz, nil, "")
		if err != nil {
			return nil, nil, fmt.Errorf("ladder %s: %w", lf.name, err)
		}
		var readP99, writeP99 float64
		for _, m := range p.e2e {
			switch m.name {
			case "virt_read_p99_us":
				readP99 = m.value
			case "virt_write_p99_us":
				writeP99 = m.value
			}
		}
		b1 := ratio(float64(p.v.backlog[0]), float64(p.v.arrivals[0]))
		b2 := ratio(float64(p.v.backlog[1]), float64(p.v.arrivals[1]))
		steady := b2 <= 1.25*b1+1
		inSLO := readP99 <= float64(readDeadline)/1e3 && writeP99 <= float64(writeDeadline)/1e3
		if steady && inSLO && rate > best {
			best = rate
		}
		ms = append(ms, newMetric("serve.ladder_p99_us."+lf.name, readP99, sprintf("read p99 at %.0f ops/s", rate)))
		lines = append(lines, fmt.Sprintf("%s  %6.0f ops/s  read p99 %10.1f us  write p99 %10.1f us  mean backlog %.1f -> %.1f  in SLO: %v  steady: %v",
			lf.name, rate, readP99, writeP99, b1, b2, inSLO, steady))
	}
	ms = append(ms, newMetric("serve.max_rate_in_slo_per_s", best, "highest rung within the deadlines and not backing up; 0 = none"))
	return ms, lines, nil
}
