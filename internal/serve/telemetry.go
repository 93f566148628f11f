package serve

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// classCounters is the fabric-wide ledger of request class c (latency
// first, everything else billed as throughput). SLO error budgets are
// per class, so the monitor's burn-rate watches read these; the shard
// ledgers stay class-blind.
func (f *Fabric) classCounters(c sched.Class) *metrics.ShardCounters {
	if c == sched.LatencySensitive {
		return &f.byClass[0]
	}
	return &f.byClass[1]
}

// Sampler returns the fabric's time-series sampler, or nil when
// Config.Telemetry is off. Its probes exist from New, but it first
// ticks after the first ResetStats.
func (f *Fabric) Sampler() *obs.Sampler { return f.sampler }

// Monitor returns the fabric's SLO health engine, or nil when
// Config.Telemetry is off (a nil monitor is valid and inert everywhere
// it is threaded). Its watches exist from New; the schedulers' and
// FTLs' events reach it only from the first ResetStats on.
func (f *Fabric) Monitor() *obs.Monitor { return f.monitor }

// Profiler returns the fabric's resource profiler, or nil when
// Config.Telemetry is off or before the first ResetStats, which builds
// it (a nil profiler is valid and inert).
func (f *Fabric) Profiler() *obs.Profiler { return f.profiler }

// The telemetry layer's fixed shape: the flight recorder keeps the
// slowest flightRecorderSpans closed spans per class, and the sampler
// ticks every sampleInterval of virtual time.
const (
	flightRecorderSpans = 32
	sampleInterval      = sim.Millisecond
)

// attachProfiler builds the resource profiler, its window starting
// now, tapping every busy-time server in the fabric — each chip's LUN
// group, each bus channel, each device's host link, each stack core
// and submission lock — and reading each device scheduler's
// dispatch-wait totals as an overlay source.
func (f *Fabric) attachProfiler() {
	f.profiler = obs.NewProfiler(f.eng.Now())
	for d, g := range f.groups {
		name := fmt.Sprintf("dev%d", d)
		arr := g.dev.Array()
		for c := 0; c < arr.Chips(); c++ {
			chip := arr.Chip(c)
			luns := make([]*sim.Server, chip.Geometry().LUNsPerChip)
			for l := range luns {
				luns[l] = chip.LUNServer(l)
			}
			f.profiler.Attach(obs.ResChip, fmt.Sprintf("%s.chip%d", name, c), luns...)
		}
		for c := 0; c < arr.Channels(); c++ {
			f.profiler.Attach(obs.ResChannel, fmt.Sprintf("%s.ch%d", name, c), arr.Channel(c).Server())
		}
		f.profiler.Attach(obs.ResLink, name+".link", g.dev.Link())
		for i := 0; i < g.stack.CPUs(); i++ {
			f.profiler.Attach(obs.ResCPU, fmt.Sprintf("%s.cpu%d", name, i), g.stack.CPU(i))
		}
		if l := g.stack.Lock(); l != nil {
			f.profiler.Attach(obs.ResLock, name+".lock", l)
		}
		f.profiler.AttachWaits(name+".sched", g.sched.WaitTotals)
	}
}

// SLO error budgets the monitor burns against: the tolerated
// deadline-miss fraction per class. Latency traffic gets the tight
// budget; throughput traffic the loose one.
const (
	latencySLOBudget    = 0.05
	throughputSLOBudget = 0.10
)

// collapseRejectFraction is the short-window rejected/submitted
// fraction past which admission is collapsing: the gate is answering
// "no" to most of the offered load.
const collapseRejectFraction = 0.5

// declareTelemetry declares the rest of the observability layer once
// the fabric is fully built (the tracer is threaded through the stacks
// as they are built): the sampler with probes over every fabric
// ledger, the monitor with its derived-alert watches, and the registry
// sources that expose them and the profile. Nothing is recorded until
// armTelemetry.
func (f *Fabric) declareTelemetry() {
	f.sampler = obs.NewSampler(sampleInterval)
	f.attachProbes()
	f.monitor = obs.NewMonitor(f.sampler, f.tracer)
	f.attachWatches()
	f.registry.Attach("series", func() any { return f.sampler.Dump() })
	f.registry.Attach("monitor", func() any { return f.monitor.Snapshot() })
	f.registry.Attach("profile", func() any { return f.profiler.Snapshot() })
	f.built = f.eng.Now()
}

// armTelemetry opens the measurement window, once: it builds the
// profiler, wires each device's scheduler to report its lease grants
// to the monitor (migration, repair and device-down events are emitted
// at their call sites), and schedules the
// sampler's first tick on the phase it has had since the fabric was
// built. A no-op with telemetry off or once armed.
func (f *Fabric) armTelemetry() {
	if f.sampler == nil || f.profiler != nil {
		return
	}
	f.attachProfiler()
	for i, g := range f.groups {
		g.sched.SetEventSink(f.monitor, fmt.Sprintf("dev%d", i))
	}
	f.sampler.Start(f.eng, f.built)
}

// attachProbes registers the standard probe set: fabric-total and
// per-class counters, the GC-coordination ledger, per-device
// calibration and observed service times, and per-shard latency
// histograms (initial shards here; migrated-in replicas add theirs in
// buildShard).
func (f *Fabric) attachProbes() {
	s := f.sampler

	s.AddCounter("fabric.submitted", func() float64 { return float64(f.stats.Totals().Submitted) })
	s.AddCounter("fabric.admitted", func() float64 { return float64(f.stats.Totals().Admitted) })
	s.AddCounter("fabric.rejected", func() float64 { return float64(f.stats.Totals().Rejected) })
	s.AddCounter("fabric.early_dropped", func() float64 { return float64(f.stats.Totals().EarlyDropped) })
	s.AddCounter("fabric.served", func() float64 { return float64(f.stats.Totals().Served) })
	s.AddCounter("fabric.missed", func() float64 { return float64(f.stats.Totals().DeadlineMissed) })

	for idx, class := range []sched.Class{sched.LatencySensitive, sched.Throughput} {
		idx, name := idx, "class."+class.String()
		s.AddCounter(name+".served", func() float64 { return float64(f.byClass[idx].Served) })
		s.AddCounter(name+".missed", func() float64 { return float64(f.byClass[idx].DeadlineMissed) })
		s.AddCounter(name+".rejected", func() float64 { return float64(f.byClass[idx].Rejected) })
	}

	s.AddCounter("gc.defers", func() float64 { return float64(f.GCCoord().Defers) })
	s.AddCounter("gc.floor_hits", func() float64 { return float64(f.GCCoord().FloorHits) })
	s.AddCounter("gc.refused", func() float64 { return float64(f.GCCoord().Refused) })
	s.AddGauge("gc.min_headroom_pages", func() float64 { return float64(f.GCCoord().MinHeadroomPages) })

	for i := 0; i < f.placed; i++ {
		g, name := f.groups[i], fmt.Sprintf("dev%d", i)
		s.AddGauge(name+".cal_ratio", func() float64 {
			r, w := g.stack.CalibratedCosts()
			if r <= 0 {
				return 0
			}
			return float64(w) / float64(r)
		})
		if est := g.stack.ServiceEstimator(); est != nil {
			for _, svc := range []string{blockdev.SvcRead, blockdev.SvcWrite} {
				ce := est.Class(svc)
				s.AddGauge(fmt.Sprintf("%s.svc_%s_us", name, svc), func() float64 {
					ce.Observe(int64(f.eng.Now()))
					return ce.EWMA() / 1e3
				})
			}
		}
	}

	for _, sh := range f.shards {
		f.attachShardProbes(sh)
	}
	for _, class := range []sched.Class{sched.LatencySensitive, sched.Throughput} {
		cname := class.String()
		s.AddHist("trace."+cname, func() *metrics.Histogram {
			return f.tracer.TotalHist(cname)
		})
	}

	// Per-kind saturation gauges plus the device-0 chip heatmap: where
	// the machine's time goes over the run, fed by the same ledger the
	// registry's profile source (and its flame export) reads.
	for _, kind := range []obs.ResourceKind{obs.ResChip, obs.ResChannel, obs.ResCPU, obs.ResLink} {
		s.AddGauge(fmt.Sprintf("fabric.util.%s_max", kind), func() float64 {
			return f.profiler.MaxUtil(kind)
		})
	}
	for c := 0; c < f.groups[0].dev.Array().Chips(); c++ {
		rname := fmt.Sprintf("dev0.chip%d", c)
		s.AddGauge(fmt.Sprintf("device.chip.%d.util", c), func() float64 {
			return f.profiler.UtilOf(obs.ResChip, rname)
		})
	}
}

// attachShardProbes adds one shard's served-latency histogram to the
// sampler (interval count/mean/p50/p99/min/stddev sub-series); a no-op
// with telemetry off.
func (f *Fabric) attachShardProbes(sh *Shard) {
	name := sh.name
	f.sampler.AddHist(name+".latency", func() *metrics.Histogram {
		return f.shardLat.Hist(name)
	})
}

// attachWatches wires the monitor's derived alerts over the sampled
// series: per-class SLO burn, admission collapse and per-device
// write-service drift.
func (f *Fabric) attachWatches() {
	m := f.monitor
	m.WatchSLO("slo.latency", "class.latency.missed", "class.latency.served",
		latencySLOBudget, sched.LatencySensitive.String())
	m.WatchSLO("slo.throughput", "class.throughput.missed", "class.throughput.served",
		throughputSLOBudget, sched.Throughput.String())
	m.WatchRateFraction(obs.EventAdmissionCollapse, "admission",
		"fabric.rejected", "fabric.submitted", collapseRejectFraction,
		sched.LatencySensitive.String())
	if f.cfg.CalibrateWindow > 0 {
		for i := 0; i < f.placed; i++ {
			name := fmt.Sprintf("dev%d", i)
			m.WatchDrift(name+".drift", name+".svc_write_us",
				sched.LatencySensitive.String())
		}
	}
}
