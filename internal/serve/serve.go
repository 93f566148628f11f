package serve

import (
	"errors"
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pcm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Package errors.
var (
	// ErrRejected reports a request refused at shard admission (queue
	// full or token bucket empty).
	ErrRejected = errors.New("serve: admission rejected")
	// ErrStopped reports a request arriving at, or abandoned by, a
	// stopped fabric.
	ErrStopped = errors.New("serve: fabric stopped")
	// ErrCrashed reports a request lost to a fabric crash (queued at the
	// moment of power loss, or arriving during recovery). Unlike
	// ErrStopped, serving resumes: clients should back off and retry.
	ErrCrashed = errors.New("serve: request lost to fabric crash")
	// ErrDeviceDown reports a request routed at a shard whose device has
	// died (KillDevice). The shard never serves again; replica groups
	// (package place) drop it and serve degraded from the survivors.
	ErrDeviceDown = errors.New("serve: device down")
)

// AdmissionConfig bounds a shard's request queue. The zero value
// disables admission control (requests backlog without limit — the
// baseline E16 measures against).
type AdmissionConfig struct {
	// Enabled turns admission control on.
	Enabled bool
	// QueueLimit is the per-shard queued-request bound; arrivals past it
	// are rejected immediately. Zero means 64.
	QueueLimit int
	// LatencyDeadline and ThroughputDeadline are the per-class
	// completion targets: a served request whose end-to-end time exceeds
	// its class deadline counts as a deadline miss. Zeros mean 2ms and
	// 20ms.
	LatencyDeadline    sim.Time
	ThroughputDeadline sim.Time
	// Rate caps per-shard admitted throughput (requests/sec) with a
	// token bucket of Burst tokens; an empty bucket rejects immediately
	// rather than queueing. Zero Rate means uncapped.
	Rate  float64
	Burst int
	// Adaptive derives admission from the observed service-time
	// distribution instead of the static constants above: each class's
	// admission target becomes deadlineFactor × its observed p99
	// service time (clamped to [1/2, 2] × the static deadline, which
	// stays the seed until the estimator window fills), and every
	// arrival's completion is predicted from its queue position — a
	// request whose predicted wait already implies a deadline miss is
	// rejected now (p99-aware early drop) instead of served late and
	// counted against the SLO. Deadline-miss accounting stays scored
	// against the static deadlines, so adaptive and static fabrics
	// grade against the same SLO.
	Adaptive bool
}

// The serving path's fixed parameters.
const (
	// serveCost is the CPU time a worker spends on a request outside
	// storage I/O — parsing, routing, serialization. It also keeps
	// virtual time honest: a request served entirely from cache must not
	// be free, or closed-loop clients would spin the simulation at one
	// instant.
	serveCost = 2 * sim.Microsecond
	// batchOpCost is the CPU cost of each op after the first in a
	// drained batch; the first op pays the full serveCost.
	batchOpCost = serveCost / 4
	// deadlineFactor scales a class's observed p99 service time into its
	// adaptive admission deadline.
	deadlineFactor = 4
	// estimatorWindow is the per-shard service-time estimator's
	// sub-window; the full observation window is 4 sub-windows.
	estimatorWindow = 2 * sim.Millisecond
	// logBytes is the progressive per-shard PCM WAL region.
	logBytes = 128 << 10
)

// BatchConfig sizes the serving path's batches: a woken worker drains
// up to MaxOps queued ops at once, the puts of a drain commit as one
// group (kvstore.ApplyBatchAsync: one log append run riding the log
// writer's next sync), and submit-side worker wakeups coalesce to at
// most one event per instant. Batch size only changes who pays fixed
// costs, never admission outcomes or span accounting.
type BatchConfig struct {
	// MaxOps bounds how many queued ops one worker drains per batch
	// (zero = 8; 1 serves one request per drain).
	MaxOps int
}

// Config parameterizes a Fabric.
type Config struct {
	// Shards is the number of logical KV shards (minimum 1).
	Shards int
	// Devices is the number of flash devices shards are spread over,
	// round-robin (0 = 1; raised to Replicas so replicas land on
	// distinct devices).
	Devices int
	// Replicas is the number of device-backed replicas per logical
	// shard (0 or 1 = single placement, the pre-replication fabric).
	// With R > 1 the fabric builds Shards×R physical shards, replica r
	// of logical shard i on device (i+r) mod Devices, so no logical
	// shard ever has two replicas on one device. The raw fabric does
	// not make replicas coherent — quorum writes, steered reads and
	// live migration live in package place, which routes the frontend
	// to replica groups instead of physical shards.
	Replicas int
	// Spares is the number of extra devices built, scheduled and carved
	// exactly like the placed ones but left empty: live-migration
	// destinations (place.Mover).
	Spares int
	// Mode selects the submission path of every device's stack.
	Mode blockdev.Mode
	// DeviceOptions scales the flash devices (preset
	// Enterprise2012Suspend, whose chips suspend an erase to serve a
	// read). BufferPages < 0 or BufferVolatile drops the safe buffer the
	// progressive assembly's atomic meta writes need, so New fails with
	// Progressive set.
	DeviceOptions ssd.Options
	// EraseStalls builds the devices from Enterprise2012 instead: the
	// paper's 2012 part, on which a chip read waits out a whole erase —
	// the stall that steering reads around collecting devices (E19)
	// exists to avoid.
	EraseStalls bool
	// Scheduled gives each shard its own tenant at its device's
	// scheduler, so the shards sharing a device are arbitrated as
	// peers. Without it they share the stack's "untagged" tenant: one
	// FIFO per device.
	Scheduled bool
	// Sched tunes the scheduler every device's stack dispatches through
	// (the zero value is the default; device GC notifications are
	// always wired in). Sched.GCCoordinate turns on host→device GC
	// coordination: each device's scheduler leases GC deferrals while
	// latency-class work is queued there, and releases them when the
	// burst drains — so the fabric shapes per-device GC across all the
	// shards sharing that device, whatever tenants they queue under.
	Sched sched.Config
	// WriteCost is the DRR billing for writes vs reads at each device's
	// scheduler (zero = blockdev default).
	WriteCost int
	// CalibrateWindow, when positive, turns on online cost calibration
	// in every device's stack (blockdev.Config.CalibrateWindow) with
	// this estimator sub-window: the DRR read/write billing follows
	// observed device service times, with WriteCost as the seed, so an
	// aging device is billed at what its ops cost today. Zero leaves it
	// off.
	CalibrateWindow sim.Time
	// QueueDepth bounds requests outstanding at each device (zero =
	// blockdev default).
	QueueDepth int
	// Progressive assembles shards the paper's way: WAL on shared
	// memory-bus PCM, atomic meta flips, trims. Otherwise each shard's
	// WAL lives in the first LogPages of its flash region behind the
	// stack (the conservative assembly).
	Progressive bool
	// LogPages is the conservative per-shard WAL region (0 = 24 pages).
	LogPages int64
	// WorkersPerShard is each shard's serving concurrency (0 = 2).
	WorkersPerShard int
	// Batch sizes the workers' batched drains (zero value = the
	// defaults).
	Batch BatchConfig
	// Store tunes each shard's KV engine.
	Store kvstore.Config
	// Admission is the shard-boundary admission policy.
	Admission AdmissionConfig
	// Telemetry turns on the whole observability layer (package obs)
	// at once: per-request span tracing with a slowest-32 flight
	// recorder per class, the 1 ms time-series sampler over every
	// fabric ledger, the SLO health monitor with its event sinks in the
	// acting layers, and the resource profiler over every chip, channel,
	// link, core and lock. All of it is host-side bookkeeping that
	// charges no virtual time, so a fabric serves exactly the same with
	// it on or off. Off, every hook is a nil check.
	Telemetry bool
}

// deviceGroup is one flash device with its stack and scheduler.
type deviceGroup struct {
	dev   *ssd.Device
	stack *blockdev.Stack
	sched *sched.Scheduler
	down  bool // device killed (KillDevice); never serves again
}

// Fabric is the assembled serving system.
type Fabric struct {
	eng      *sim.Engine
	cfg      Config
	groups   []*deviceGroup
	shards   []*Shard
	membus   *pcm.MemBus
	stats    *metrics.ShardStats
	shardLat *metrics.TenantLatencies
	tracer   *obs.Tracer
	registry *obs.Registry
	sampler  *obs.Sampler
	monitor  *obs.Monitor
	profiler *obs.Profiler
	byClass  [2]metrics.ShardCounters // per request class (classCounters)
	stopped  bool
	crashing bool

	// Region bookkeeping: every device (spares included) is carved into
	// the same number of equal page regions ("slots"); slotOwner tracks
	// which shard holds each one, so live migration can carve a fresh
	// replica on any device with a free slot and retiring a shard frees
	// its slot for reuse.
	placed    int // devices holding initial placements (the rest are spares)
	slots     int // regions per device
	slotSpan  int64
	slotOwner [][]*Shard
	grafts    int      // migrated-in replicas built so far (names stay unique)
	targets   []Target // cached default routing table (nil after shard set changes)

	// onDeviceDown callbacks fire inside the KillDevice event, after the
	// device's shards have failed their backlogs — the device-health
	// signal replica placement subscribes to.
	onDeviceDown []func(d int)

	// Errors counts served requests that failed in the storage engine
	// (not admission rejects), and checkpoints that failed at the end of
	// a drain — should stay zero in a sized fabric.
	Errors int64
}

// New assembles a fabric on eng. It must be called from a simulated
// process (shard recovery does I/O). Serving starts immediately:
// WorkersPerShard processes per shard pull from the admission queues
// until Stop.
func New(p *sim.Proc, eng *sim.Engine, cfg Config) (*Fabric, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Devices < 1 {
		cfg.Devices = 1
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Spares < 0 {
		cfg.Spares = 0
	}
	// Replicas of one shard must land on distinct devices, and devices
	// beyond one per physical shard would sit empty.
	if cfg.Devices < cfg.Replicas {
		cfg.Devices = cfg.Replicas
	}
	if physical := cfg.Shards * cfg.Replicas; cfg.Devices > physical {
		cfg.Devices = physical
	}
	if cfg.WorkersPerShard < 1 {
		cfg.WorkersPerShard = 2
	}
	if cfg.Batch.MaxOps <= 0 {
		cfg.Batch.MaxOps = 8
	}
	if cfg.LogPages <= 0 {
		cfg.LogPages = 24
	}
	if cfg.Admission.QueueLimit <= 0 {
		cfg.Admission.QueueLimit = 64
	}
	if cfg.Admission.LatencyDeadline <= 0 {
		cfg.Admission.LatencyDeadline = 2 * sim.Millisecond
	}
	if cfg.Admission.ThroughputDeadline <= 0 {
		cfg.Admission.ThroughputDeadline = 20 * sim.Millisecond
	}
	if cfg.Admission.Burst < 1 {
		cfg.Admission.Burst = 1
	}

	f := &Fabric{
		eng:      eng,
		cfg:      cfg,
		stats:    metrics.NewShardStats(),
		shardLat: metrics.NewTenantLatencies(),
		registry: obs.NewRegistry(),
	}
	if cfg.Telemetry {
		f.tracer = obs.NewTracer(flightRecorderSpans)
	}
	f.attachRegistrySources()

	// Placement: replica r of logical shard i on device (i+r) mod
	// Devices. Every device — spares included — is carved into the same
	// number of region slots (the most any placed device holds), so a
	// migrated replica fits any device with a free slot.
	shardsOn := make([]int, cfg.Devices)
	for i := 0; i < cfg.Shards; i++ {
		for r := 0; r < cfg.Replicas; r++ {
			shardsOn[(i+r)%cfg.Devices]++
		}
	}
	slots := 0
	for _, n := range shardsOn {
		if n > slots {
			slots = n
		}
	}
	totalDevices := cfg.Devices + cfg.Spares
	f.placed = cfg.Devices
	f.slots = slots

	preset := ssd.Enterprise2012Suspend
	if cfg.EraseStalls {
		preset = ssd.Enterprise2012
	}
	if cfg.Progressive {
		// The atomic meta flip needs the safe buffer; PCM WAL regions
		// share one memory bus (one region per slot fabric-wide, so
		// migrated-in replicas have their own WAL region too).
		buscfg := pcm.DefaultConfig()
		need := int64(totalDevices*slots) * logBytes
		if buscfg.CapacityBytes < need {
			buscfg.CapacityBytes = need
		}
		pdev, err := pcm.New(eng, "fabric-pcm", buscfg)
		if err != nil {
			return nil, err
		}
		f.membus = pcm.NewMemBus(eng, pdev)
	}

	workersPerDevice := (slots + 1) * cfg.WorkersPerShard
	for d := 0; d < totalDevices; d++ {
		opts := cfg.DeviceOptions
		opts.Seed = uint64(d + 1)
		built, err := ssd.Build(eng, preset, opts)
		if err != nil {
			return nil, err
		}
		// Every layer above relies on the flash device's peer half (GC
		// notifier and leases, event sink, ledger) and its array (fault
		// hooks, chip servers): assert them once here.
		dev, ok := built.(*ssd.Device)
		if !ok || dev.Peer() == nil {
			return nil, fmt.Errorf("serve: preset %v built a %T, want an *ssd.Device with a page FTL", preset, built)
		}
		scfg := blockdev.DefaultConfig(cfg.Mode)
		scfg.CPUs = workersPerDevice + 2
		if cfg.QueueDepth > 0 {
			scfg.QueueDepth = cfg.QueueDepth
		}
		scfg.WriteCost = cfg.WriteCost
		scfg.CalibrateWindow = cfg.CalibrateWindow
		stack, err := blockdev.New(eng, dev, scfg)
		if err != nil {
			return nil, err
		}
		g := &deviceGroup{dev: dev, stack: stack, sched: sched.New(eng, cfg.Sched)}
		stack.SetTracer(f.tracer)
		stack.AttachScheduler(g.sched)
		f.groups = append(f.groups, g)
	}

	// Carve per-shard regions and open the stores.
	f.slotSpan = f.groups[0].dev.Capacity() / int64(slots)
	f.slotOwner = make([][]*Shard, totalDevices)
	for d := range f.slotOwner {
		f.slotOwner[d] = make([]*Shard, slots)
	}
	for i := 0; i < cfg.Shards; i++ {
		for r := 0; r < cfg.Replicas; r++ {
			name := fmt.Sprintf("shard%d", i)
			if cfg.Replicas > 1 {
				name = fmt.Sprintf("shard%d.r%d", i, r)
			}
			if _, err := f.buildShard(p, name, i, (i+r)%cfg.Devices); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Telemetry {
		f.startTelemetry()
	}
	return f, nil
}

// buildShard carves a free region slot on device d and opens a physical
// shard there: its own scheduler tenant (Config.Scheduled), WAL
// region, admission state and worker pool. Both the initial placement
// and live migration destinations come through here.
func (f *Fabric) buildShard(p *sim.Proc, name string, logical, d int) (*Shard, error) {
	g := f.groups[d]
	slot := -1
	for s, owner := range f.slotOwner[d] {
		if owner == nil {
			slot = s
			break
		}
	}
	if slot < 0 {
		return nil, fmt.Errorf("serve: no free region slot on device %d", d)
	}
	region := kvstore.ShardRegion{
		Base:       int64(slot) * f.slotSpan,
		Span:       f.slotSpan,
		LogPages:   f.cfg.LogPages,
		LogBase:    int64(d*f.slots+slot) * logBytes,
		LogBytes:   logBytes,
		SubmitCore: slot * f.cfg.WorkersPerShard,
	}
	if f.cfg.Scheduled {
		// Every shard serves a hash-slice of every tenant's keys, so
		// shards are peers: equal weight, latency class (GC deferral
		// stays a per-request policy, not a per-shard one).
		region.Tenant = g.sched.AddTenant(name, sched.LatencySensitive, 1)
	}
	var sys *kvstore.System
	var err error
	if f.cfg.Progressive {
		sys, err = kvstore.BuildShardProgressive(p, f.eng, g.stack, f.membus, region, f.cfg.Store)
	} else {
		sys, err = kvstore.BuildShardConservative(p, f.eng, g.stack, region, f.cfg.Store)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: shard %s: %w", name, err)
	}
	sh := &Shard{
		fab:     f,
		idx:     len(f.shards),
		name:    name,
		logical: logical,
		dev:     d,
		slot:    slot,
		group:   g,
		sys:     sys,
		stats:   f.stats.Shard(name),
		bucket:  newTokenBucket(f.cfg.Admission.Rate, f.cfg.Admission.Burst, f.eng.Now()),
	}
	sh.wake = sh.wakeWorkers
	if f.cfg.Admission.Adaptive {
		// The estimator exists only when a policy consumes it, so the
		// static plane's serving hot path pays no measurement cost.
		sh.svc = metrics.NewEstimator(int64(estimatorWindow), 4, 0.1)
	}
	f.slotOwner[d][slot] = sh
	f.shards = append(f.shards, sh)
	f.targets = nil
	for range f.cfg.WorkersPerShard {
		f.eng.Go(sh.worker)
	}
	// Shards built after startTelemetry (migrated-in replicas) join the
	// sampler here; the initial set is attached in one pass at startup.
	f.attachShardProbes(sh)
	return sh, nil
}

// AddReplica builds a fresh physical shard for logical shard logical on
// device d — the destination of a live migration (place.Mover). The
// new shard is empty, serves through its own admission queue and
// workers, and is not routed to until a replica group adopts it. It
// fails when device d has no free region slot.
func (f *Fabric) AddReplica(p *sim.Proc, logical, d int) (*Shard, error) {
	if logical < 0 || logical >= f.cfg.Shards {
		return nil, fmt.Errorf("serve: logical shard %d out of range", logical)
	}
	if d < 0 || d >= len(f.groups) {
		return nil, fmt.Errorf("serve: device %d out of range", d)
	}
	f.grafts++
	return f.buildShard(p, fmt.Sprintf("shard%d.m%d", logical, f.grafts), logical, d)
}

// Retire permanently removes sh from service: queued requests fail with
// ErrStopped, its workers exit, and its region slot frees for a future
// AddReplica. Its counters stay in Stats (the ledger keeps history).
// Callers must stop routing to the shard first — package place swaps
// the replica set before retiring the old replica.
func (f *Fabric) Retire(sh *Shard) {
	if sh.retired {
		return
	}
	sh.retired = true
	sh.failBacklog(ErrStopped)
	sh.releaseWorkers()
	f.slotOwner[sh.dev][sh.slot] = nil
	for i, s := range f.shards {
		if s == sh {
			f.shards = append(f.shards[:i], f.shards[i+1:]...)
			break
		}
	}
	f.targets = nil
}

// FreeSlots reports device d's unused region slots — where a migrated
// replica could land.
func (f *Fabric) FreeSlots(d int) int {
	n := 0
	for _, owner := range f.slotOwner[d] {
		if owner == nil {
			n++
		}
	}
	return n
}

// Targets implements Router: the default routing table, one target per
// physical shard in creation order. Fabrics built with Replicas > 1
// must not be driven through this default — routing physical shards
// directly would scatter a key's replicas — package place supplies the
// replica-aware router instead.
func (f *Fabric) Targets() []Target {
	if f.targets == nil {
		f.targets = make([]Target, len(f.shards))
		for i, sh := range f.shards {
			f.targets[i] = sh
		}
	}
	return f.targets
}

// Engine returns the fabric's simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Config returns the fabric configuration after defaulting.
func (f *Fabric) Config() Config { return f.cfg }

// Shards returns the fabric's shards in index order.
func (f *Fabric) Shards() []*Shard { return f.shards }

// Stats returns the per-shard admission/serving counters.
func (f *Fabric) Stats() *metrics.ShardStats { return f.stats }

// ShardLatencies returns end-to-end served-request latencies keyed by
// shard name (the per-shard view; per-tenant views are recorded by
// Frontend.Drive).
func (f *Fabric) ShardLatencies() *metrics.TenantLatencies { return f.shardLat }

// ResetStats clears the per-shard counters, latency sets and trace
// aggregates (after a warmup or preload phase). With telemetry on, the
// measurement epoch starts here for the monitor and the profiler too:
// set-up health events are dropped, drift is judged against the
// post-warmup steady state rather than the cold start, and the
// attribution window restarts.
func (f *Fabric) ResetStats() {
	f.stats.Reset()
	f.shardLat.Reset()
	f.tracer.Reset()
	f.byClass = [2]metrics.ShardCounters{}
	f.monitor.Rebase()
	f.profiler.Rebase(f.eng.Now())
}

// Tracer returns the fabric's request tracer, or nil when
// Config.Telemetry is off (a nil tracer is valid and inert everywhere
// it is threaded).
func (f *Fabric) Tracer() *obs.Tracer { return f.tracer }

// Registry returns the fabric's telemetry registry: the merged,
// JSON-exportable snapshot of every ledger the stack keeps. The fabric
// attaches its own sources (shard counters, shard latencies, GC
// coordination, calibration, trace aggregates); other layers — replica
// placement, experiments — attach theirs to the same registry.
func (f *Fabric) Registry() *obs.Registry { return f.registry }

// attachRegistrySources registers the fabric-owned telemetry sources.
func (f *Fabric) attachRegistrySources() {
	f.registry.Attach("shard_stats", func() any {
		out := make(map[string]metrics.ShardCounters, len(f.stats.Shards())+1)
		for _, name := range f.stats.Shards() {
			out[name] = *f.stats.Shard(name)
		}
		out["total"] = f.stats.Totals()
		return out
	})
	f.registry.Attach("shard_latencies", func() any {
		return obs.SummarizeTenants(f.shardLat)
	})
	f.registry.Attach("gc_coord", func() any { return f.GCCoord() })
	f.registry.Attach("calibration", func() any {
		type devCal struct {
			Device string `json:"device"`
			Read   int    `json:"read_cost"`
			Write  int    `json:"write_cost"`
		}
		out := make([]devCal, 0, len(f.groups))
		for _, g := range f.groups {
			r, w := g.stack.CalibratedCosts()
			out = append(out, devCal{Device: g.dev.Name(), Read: r, Write: w})
		}
		return out
	})
	f.registry.Attach("trace", func() any { return f.tracer.Snapshot() })
}

// Scheduler returns device d's scheduler, the gate every request to
// the device waits at (never nil).
func (f *Fabric) Scheduler(d int) *sched.Scheduler { return f.groups[d].sched }

// GCCoord merges the GC-coordination ledgers of every device in the
// fabric — the host side (defer leases requested, resumes issued, from
// each device's scheduler) and the device side (sessions granted,
// refusals, floor hits, minimum headroom, from each FTL). The merged
// ledger is E17's proof that coordination engaged and that no device's
// free pool was starved below its floor.
func (f *Fabric) GCCoord() metrics.GCCoord {
	g := metrics.NewGCCoord()
	for _, grp := range f.groups {
		g.Add(grp.sched.GCCoord())
		g.Add(grp.dev.Peer().GCCoord())
	}
	return g
}

// Stack returns device d's block-layer stack.
func (f *Fabric) Stack(d int) *blockdev.Stack { return f.groups[d].stack }

// Device returns device d (spares included), or nil when d is out of
// range. New builds every device from a page-mapped preset, so the
// concrete type is known fabric-wide.
func (f *Fabric) Device(d int) *ssd.Device {
	if d < 0 || d >= len(f.groups) {
		return nil
	}
	return f.groups[d].dev
}

// Devices reports the device count, spares included.
func (f *Fabric) Devices() int { return len(f.groups) }

// PlacedDevices reports the devices holding initial shard placements;
// devices [PlacedDevices, Devices) are spares (Config.Spares).
func (f *Fabric) PlacedDevices() int { return f.placed }

// Stop ends serving: new submissions fail with ErrStopped. With drain
// set, queued requests are still served before the workers exit;
// otherwise they are dropped (counted in ShardStats, completed with
// ErrStopped) so a time-bounded experiment is not distorted by
// post-horizon queue draining.
func (f *Fabric) Stop(drain bool) {
	if f.stopped {
		return
	}
	f.stopped = true
	f.sampler.Stop()
	for _, sh := range f.shards {
		if !drain {
			sh.failBacklog(ErrStopped)
		}
		sh.releaseWorkers()
	}
}

// StopAt schedules Stop(drain) at virtual time at.
func (f *Fabric) StopAt(at sim.Time, drain bool) {
	f.eng.Schedule(at, func() { f.Stop(drain) })
}

// Stopped reports whether the fabric has been stopped.
func (f *Fabric) Stopped() bool { return f.stopped }

// Crashing reports whether the fabric is mid-crash (replica routers
// fail writes with ErrCrashed instead of fanning them out).
func (f *Fabric) Crashing() bool { return f.crashing }
