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
// Config.Telemetry is off.
func (f *Fabric) Sampler() *obs.Sampler { return f.sampler }

// Monitor returns the fabric's SLO health engine, or nil when
// Config.Telemetry is off (a nil monitor is valid and inert everywhere
// it is threaded).
func (f *Fabric) Monitor() *obs.Monitor { return f.monitor }

// Profiler returns the fabric's resource profiler, or nil when
// Config.Telemetry is off (a nil profiler is valid and inert).
func (f *Fabric) Profiler() *obs.Profiler { return f.profiler }

// The telemetry layer's fixed shape: the flight recorder keeps the
// slowest flightRecorderSpans closed spans per class, and the sampler
// ticks every sampleInterval of virtual time.
const (
	flightRecorderSpans = 32
	sampleInterval      = sim.Millisecond
)

// attachProfiler taps every busy-time server in the fabric — each
// chip's LUN group, each bus channel, each device's host link, each
// stack core and submission lock — and reads each device scheduler's
// dispatch-wait totals as an overlay source. ResetStats rebases the
// window after preload.
func (f *Fabric) attachProfiler() {
	f.profiler = obs.NewProfiler()
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
		if g.sched != nil {
			f.profiler.AttachWaits(name+".sched", g.sched.WaitTotals)
		}
	}
	f.profiler.Rebase(f.eng.Now())
	f.registry.Attach("profile", func() any { return f.profiler.Snapshot() })
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

// stormFloorHitsPerTick is the short-window floor-hit rate (per
// sampling tick) past which deferred GC is storming through its leases.
const stormFloorHitsPerTick = 2

// proximityHeadroomPages is the min-headroom gauge level (pages) at or
// below which the free pool is scraping the hard floor.
const proximityHeadroomPages = 4

// startTelemetry assembles the rest of the observability layer once
// the fabric is fully built (the tracer is threaded through the stacks
// as they are built): the resource profiler, the sampler with probes
// over every fabric ledger, the monitor with its derived-alert watches,
// event sinks in the acting layers, and the registry sources that
// expose them. The first tick fires one sampling interval into
// serving.
func (f *Fabric) startTelemetry() {
	f.attachProfiler()
	f.sampler = obs.NewSampler(sampleInterval)
	f.attachProbes()
	f.monitor = obs.NewMonitor(f.sampler, f.tracer)
	f.attachWatches()
	// Event emitters in the acting layers: lease decisions from each
	// device's scheduler, floor hits and forced collection from each
	// device's FTL. Migration, repair and device-down events are
	// emitted at their call sites.
	for i, g := range f.groups {
		if g.sched != nil {
			g.sched.SetEventSink(f.monitor, fmt.Sprintf("dev%d", i))
		}
		g.dev.SetEventSink(f.monitor)
	}
	f.registry.Attach("series", func() any { return f.sampler.Dump() })
	f.registry.Attach("monitor", func() any { return f.monitor.Snapshot() })
	// If a live HTTP exposition is installed (deathbench -serve), this
	// fabric becomes the run it shows.
	obs.FollowLive(f.registry, f.sampler, f.monitor, f.profiler)
	f.sampler.Start(f.eng)
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
	// Completion-fed throughput: the served-count delta since the last
	// sample over the elapsed interval, so E23's ops/sec ceiling is
	// visible live on /metrics while the sweep runs.
	var lastServed float64
	var lastAt sim.Time
	s.AddGauge("fabric.throughput.ops_per_sec", func() float64 {
		now := f.eng.Now()
		served := float64(f.stats.Totals().Served)
		rate := 0.0
		if now > lastAt {
			rate = (served - lastServed) / (now - lastAt).Seconds()
			lastServed, lastAt = served, now
		}
		return rate
	})

	for idx, class := range []sched.Class{sched.LatencySensitive, sched.Throughput} {
		idx, name := idx, "class."+class.String()
		s.AddCounter(name+".served", func() float64 { return float64(f.byClass[idx].Served) })
		s.AddCounter(name+".missed", func() float64 { return float64(f.byClass[idx].DeadlineMissed) })
		s.AddCounter(name+".rejected", func() float64 { return float64(f.byClass[idx].Rejected) })
	}

	s.AddCounter("gc.defers", func() float64 { return float64(f.GCCoord().Defers) })
	s.AddCounter("gc.floor_hits", func() float64 { return float64(f.GCCoord().FloorHits) })
	s.AddCounter("gc.refused", func() float64 { return float64(f.GCCoord().Refused) })
	s.AddCounter("gc.declined", func() float64 { return float64(f.GCCoord().HostDeclined) })
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

	// Per-kind saturation gauges plus the device-0 chip heatmap: the
	// live view of where the machine's time goes, fed by the same
	// ledger the /profile flame export reads.
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
// series: per-class SLO burn, per-device write-service drift, GC
// storming, floor proximity, and admission collapse.
func (f *Fabric) attachWatches() {
	m := f.monitor
	m.WatchSLO("slo.latency", "class.latency.missed", "class.latency.served",
		latencySLOBudget, sched.LatencySensitive.String())
	m.WatchSLO("slo.throughput", "class.throughput.missed", "class.throughput.served",
		throughputSLOBudget, sched.Throughput.String())
	m.WatchRateFraction(obs.EventAdmissionCollapse, "admission",
		"fabric.rejected", "fabric.submitted", collapseRejectFraction,
		sched.LatencySensitive.String())
	m.WatchCounterRate(obs.EventGCStorm, "gc_storm", "gc.floor_hits",
		stormFloorHitsPerTick, "")
	m.WatchGaugeBelow(obs.EventFloorProximity, "floor_headroom",
		"gc.min_headroom_pages", proximityHeadroomPages, "")
	if f.cfg.Calibrate {
		for i := 0; i < f.placed; i++ {
			name := fmt.Sprintf("dev%d", i)
			m.WatchDrift(name+".drift", name+".svc_write_us",
				sched.LatencySensitive.String())
		}
	}
}
