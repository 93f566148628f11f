package main

// sizing is how much work one pass does.
type sizing struct {
	// ops is the number of operations in the timed window.
	ops int
	// small shrinks devices and key spaces for the smoke tests; the
	// measured sizes are the !small ones.
	small bool
}

// builder builds one pass's window: engine, devices, upper layers,
// set-up to steady state, and the load generator, all derived from
// seed. tr is nil on timed runs.
type builder func(seed uint64, sz sizing, tr *tracer) (*window, error)

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name string
	why  string
	// opsPerSecond converts the run's measuring time into a fixed op
	// count: the ops this workload's window gets per second of wall
	// budget, measured once on the 2-core reference box and recorded
	// here so that a run's work never depends on how fast the box is
	// today. Changing it changes every metric's baseline.
	opsPerSecond int
	// openLoop marks the workload whose arrivals do not wait for
	// completions.
	openLoop bool
	build    builder
}

var workloads = []*workloadDef{
	{
		name:         "dev_randwrite",
		why:          "raw ssd.Dev, QD16 uniform page overwrites (1/16 read probes): only ftl GC, write buffer and nand work; the paper's Myth-2 regime",
		opsPerSecond: 240_000,
		build:        buildDev(1.0/16, false, 1),
	},
	{
		name:         "dev_mixed",
		why:          "same device, 70% uniform reads beside 30% Zipf(0.99) writes: reads queued behind GC and skewed invalidation",
		opsPerSecond: 415_000,
		build:        buildDev(0.70, true, 4),
	},
	{
		name:         "kv_sat",
		why:          "closed loop through serve.Frontend.Submit, 4 shards on one device, MultiQueue + scheduler + admission, 4-frame cache: serve, sched, blockdev CPU and kvstore/wal/btree under saturation with rejects",
		opsPerSecond: 32_000,
		build:        buildKV(kvSat),
	},
	{
		name:         "kv_open",
		why:          "open loop at 4000 ops/s (half the knee), 4 shards x R=2 on 2 devices behind place, Direct path, cache holds the Zipf hot set: latency below the knee, reads steered by place, half served from bufpool",
		opsPerSecond: 21_000,
		openLoop:     true,
		build:        buildKV(kvOpen),
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizeFor turns a measuring time and a pass count into one pass's op
// count.
func (w *workloadDef) sizeFor(seconds float64, passes int) sizing {
	ops := int(float64(w.opsPerSecond) * seconds / float64(passes))
	if ops < 2000 {
		ops = 2000
	}
	return sizing{ops: ops}
}
