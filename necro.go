// Package necro is the public API of this reproduction of "The
// Necessary Death of the Block Device Interface" (Bjørling, Bonnet,
// Bouganim, Dayan — CIDR 2013).
//
// It re-exports the stable surface of the internal packages:
//
//   - a deterministic discrete-event simulation kernel (Engine, Proc);
//   - simulated storage hardware: NAND flash arrays behind four FTL
//     generations, PCM on the memory bus, and assembled SSD presets
//     spanning 2008-2012;
//   - the OS block layer in single-queue, multi-queue and direct forms;
//   - the paper's proposed post-block-device interface: sync/async
//     separation, nameless writes, trim, atomic writes (package core);
//   - a transactional KV storage engine that runs over both the
//     conservative and the progressive stack;
//   - a multi-tenant I/O scheduler (weighted fair queueing, rate caps,
//     GC-aware deferral fed by device notifications) on the
//     submission path;
//   - a replica placement layer over the fabric: quorum writes,
//     GC-steered reads, drift-triggered live shard migration;
//   - an observability spine: per-request trace spans stamped by every
//     layer, tail-sampled flight recording, a unified telemetry
//     registry, a time-series sampler with an SLO burn-rate and drift
//     health engine, and live HTTP exposition (package obs);
//   - a deterministic seeded fault-injection harness (package faults):
//     kill, stall or slow a device or single chip at exact virtual
//     times, with device death degrading and repairing replica groups;
//   - the experiment suite E1-E23: E1-E14 regenerate every figure and
//     quantitative claim in the paper, E15-E23 grow the served system.
//
// Quick start:
//
//	eng := necro.NewEngine()
//	dev, _ := necro.BuildDevice(eng, necro.Enterprise2012, necro.DeviceOptions{})
//	dev.Write(0, nil, func(err error) { fmt.Println("written", err) })
//	eng.Run()
//
// See examples/ for complete programs and DESIGN.md for the system map.
package necro

import (
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/ftl"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pcm"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// Simulation kernel.
type (
	// Engine is the deterministic discrete-event simulator every model
	// runs on.
	Engine = sim.Engine
	// Proc is a simulated process (blocking-style client code).
	Proc = sim.Proc
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// RNG is the deterministic random source.
	RNG = sim.RNG
	// Server is an exclusive FIFO resource on the virtual clock (a
	// chip LUN, a channel, a CPU); the resource profiler taps its
	// reservations.
	Server = sim.Server
)

// Common durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns a fresh simulation engine at time zero.
func NewEngine() *Engine { return sim.NewEngine() }

// NewRNG returns a seeded deterministic random source.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// NewServer returns a named exclusive FIFO resource on eng's clock.
func NewServer(eng *Engine, name string) *Server { return sim.NewServer(eng, name) }

// Devices.
type (
	// Device is the host-visible contract of a simulated SSD.
	Device = ssd.Dev
	// FlashDevice is a flash SSD with the extended (§3) command set.
	FlashDevice = ssd.Device
	// PCMSSD is a PCM SSD behind the block interface.
	PCMSSD = ssd.PCMSSD
	// DeviceOptions scales a preset.
	DeviceOptions = ssd.Options
	// DevicePreset selects a device generation.
	DevicePreset = ssd.Preset
	// MemBus is PCM attached to the memory bus (store + persist).
	MemBus = pcm.MemBus
	// PCMConfig parameterizes a PCM part.
	PCMConfig = pcm.Config
)

// Device presets.
const (
	// Consumer2008 is the pre-2009 hybrid-FTL device (Myth 2 era).
	Consumer2008 = ssd.Consumer2008
	// Enterprise2012 is the page-mapped, battery-buffered device.
	Enterprise2012 = ssd.Enterprise2012
	// Enterprise2012Unbuffered isolates the write buffer's effect.
	Enterprise2012Unbuffered = ssd.Enterprise2012Unbuffered
	// DFTL2012 uses a demand-paged mapping cache.
	DFTL2012 = ssd.DFTL2012
	// PCM2012 is an Onyx-style PCM SSD.
	PCM2012 = ssd.PCM2012
)

// BuildDevice constructs a preset device on eng.
func BuildDevice(eng *Engine, p DevicePreset, opt DeviceOptions) (Device, error) {
	return ssd.Build(eng, p, opt)
}

// NewMemBus attaches a PCM part to the memory bus.
func NewMemBus(eng *Engine, name string, cfg PCMConfig) (*MemBus, error) {
	dev, err := pcm.New(eng, name, cfg)
	if err != nil {
		return nil, err
	}
	return pcm.NewMemBus(eng, dev), nil
}

// DefaultPCMConfig returns the 2012-flavoured PCM parameterization.
func DefaultPCMConfig() PCMConfig { return pcm.DefaultConfig() }

// The I/O stack.
type (
	// Stack is one configured OS I/O path to a device.
	Stack = blockdev.Stack
	// StackConfig parameterizes the stack.
	StackConfig = blockdev.Config
	// StackMode selects single-queue, multi-queue or direct submission.
	StackMode = blockdev.Mode
)

// Stack modes.
const (
	// SingleQueue is the classic shared-lock block layer.
	SingleQueue = blockdev.SingleQueue
	// MultiQueue is the blk-mq-style per-core design.
	MultiQueue = blockdev.MultiQueue
	// DirectAccess bypasses the block layer entirely.
	DirectAccess = blockdev.Direct
)

// NewStack builds an I/O stack over dev.
func NewStack(eng *Engine, dev Device, cfg StackConfig) (*Stack, error) {
	return blockdev.New(eng, dev, cfg)
}

// DefaultStackConfig mirrors a 2012 Linux stack.
func DefaultStackConfig(mode StackMode) StackConfig { return blockdev.DefaultConfig(mode) }

// Multi-tenant scheduling (package sched).
type (
	// Scheduler arbitrates tenant-tagged requests on the submission
	// path (weighted fair queueing, rate caps, GC-aware deferral).
	Scheduler = sched.Scheduler
	// SchedulerConfig parameterizes a Scheduler.
	SchedulerConfig = sched.Config
	// Tenant is one registered traffic source.
	Tenant = sched.Tenant
	// TenantClass separates latency-sensitive from throughput tenants.
	TenantClass = sched.Class
	// GCControl is the host→device GC shaping surface a scheduler uses
	// to park background collection during latency bursts (the other
	// half of the peer interface; ssd devices implement it).
	GCControl = sched.GCControl
	// SchedItem is one request of an enqueue (Scheduler.EnqueueBatch):
	// cost, trace span and dispatch closure.
	SchedItem = sched.Item
)

// Tenant classes.
const (
	// LatencySensitive tenants are protected by fair queueing and the
	// GC-aware policy.
	LatencySensitive = sched.LatencySensitive
	// Throughput tenants tolerate deferral for aggregate bandwidth.
	Throughput = sched.Throughput
)

// NewScheduler builds a multi-tenant scheduler on eng; attach it with
// Stack.AttachScheduler and tag requests with tenants from AddTenant.
func NewScheduler(eng *Engine, cfg SchedulerConfig) *Scheduler { return sched.New(eng, cfg) }

// DefaultSchedulerConfig returns the standard arbitration parameters.
func DefaultSchedulerConfig() SchedulerConfig { return sched.DefaultConfig() }

// The paper's interface (package core).
type (
	// Store is the assembled storage interface (sync log + async pages
	// + nameless objects).
	Store = core.Store
	// ObjectStore is the nameless-write object interface.
	ObjectStore = core.ObjectStore
	// Token is a host handle for a nameless object.
	Token = core.Token
	// PPA is a device physical page address.
	PPA = ftl.PPA
)

// NewProgressiveStore assembles the paper's proposed stack.
func NewProgressiveStore(eng *Engine, membus *MemBus, logBytes int64, flash *FlashDevice, cpus int) (*Store, error) {
	return core.NewProgressive(eng, membus, logBytes, flash, cpus)
}

// NewConservativeStore assembles the classic stack.
func NewConservativeStore(eng *Engine, flash Device, logPages int64, cpus int) (*Store, error) {
	return core.NewConservative(eng, flash, logPages, cpus)
}

// The storage engine.
type (
	// KV is the transactional key-value storage engine.
	KV = kvstore.Store
	// KVTxn is one transaction.
	KVTxn = kvstore.Txn
	// KVConfig tunes the engine.
	KVConfig = kvstore.Config
	// KVSystem bundles an engine with its devices for crash testing.
	KVSystem = kvstore.System
	// KVBatchOp is one operation of a multi-op group commit
	// (KV.ApplyBatch): N puts/deletes, one WAL sync.
	KVBatchOp = kvstore.BatchOp
)

// BuildConservativeKV assembles the engine over the conservative stack.
func BuildConservativeKV(p *Proc, eng *Engine, flash Device, logPages int64, cpus int, cfg KVConfig) (*KVSystem, error) {
	return kvstore.BuildConservative(p, eng, flash, logPages, cpus, cfg)
}

// BuildProgressiveKV assembles the engine over the progressive stack.
func BuildProgressiveKV(p *Proc, eng *Engine, flash *FlashDevice, membus *MemBus, logBytes int64, cpus int, cfg KVConfig) (*KVSystem, error) {
	return kvstore.BuildProgressive(p, eng, flash, membus, logBytes, cpus, cfg)
}

// The serving fabric (package serve).
type (
	// Fabric is the sharded multi-tenant KV serving fabric: N KV shards
	// multiplexed over shared devices, each its own scheduler tenant,
	// behind shard-boundary admission control.
	Fabric = serve.Fabric
	// FabricConfig parameterizes a Fabric.
	FabricConfig = serve.Config
	// FabricShard is one KV slice of the fabric.
	FabricShard = serve.Shard
	// Frontend hash-routes keys to shards and drives client mixes.
	Frontend = serve.Frontend
	// AdmissionConfig bounds per-shard queues, rates and deadlines.
	AdmissionConfig = serve.AdmissionConfig
	// FabricBatchConfig sizes the serving path's batches: how many
	// queued ops a shard worker drains (and group-commits) at once.
	FabricBatchConfig = serve.BatchConfig
	// ShardStats is the per-shard admission/serving ledger.
	ShardStats = metrics.ShardStats
)

// NewFabric assembles a serving fabric; call from a simulated process.
func NewFabric(p *Proc, eng *Engine, cfg FabricConfig) (*Fabric, error) {
	return serve.New(p, eng, cfg)
}

// NewFrontend builds a client frontend over fab with the given key
// space and value size.
func NewFrontend(fab *Fabric, keys int64, valueSize int) *Frontend {
	return serve.NewFrontend(fab, keys, valueSize)
}

// Replica placement over the fabric (package place).
type (
	// Placement groups a replicated fabric's shards into replica groups
	// (quorum writes, GC-steered reads) and routes the frontend to them.
	Placement = place.Placement
	// ReplicaGroup is one logical shard's replica set.
	ReplicaGroup = place.Group
	// Mover performs drift- and miss-triggered live shard migration.
	Mover = place.Mover
	// MoverConfig tunes the migration controller.
	MoverConfig = place.MoverConfig
	// PlaceLedger is the steering/quorum/migration accounting.
	PlaceLedger = metrics.PlaceLedger
	// DriftAlarm is the windowed service-time trend alarm migration
	// consumes.
	DriftAlarm = metrics.DriftAlarm
)

// NewPlacement groups a fabric built with FabricConfig.Replicas into
// replica groups; attach it to a Frontend to serve through them.
func NewPlacement(f *Fabric) (*Placement, error) {
	return place.New(f)
}

// Observability (package obs).
type (
	// Tracer opens, binds and aggregates per-request trace spans.
	Tracer = obs.Tracer
	// TraceSpan is one request's life, stamped stage by stage.
	TraceSpan = obs.Span
	// TraceStage names one exclusive segment of a span.
	TraceStage = obs.Stage
	// TraceRecord is an immutable closed-span record (flight recorder).
	TraceRecord = obs.SpanRecord
	// TraceRegistry merges the stack's scattered ledgers into one
	// exportable telemetry snapshot.
	TraceRegistry = obs.Registry
	// TraceHistSummary is a histogram condensed for export.
	TraceHistSummary = obs.HistSummary
)

// Trace stages.
const (
	// StageFrontend is routing/dispatch before shard admission.
	StageFrontend = obs.StageFrontend
	// StageAdmission is the shard admission-queue wait.
	StageAdmission = obs.StageAdmission
	// StageSched is DRR queue wait in the I/O scheduler.
	StageSched = obs.StageSched
	// StageDevice is dispatch→complete device service.
	StageDevice = obs.StageDevice
	// StageServe is shard serving time outside the stages above.
	StageServe = obs.StageServe
)

// NewTracer builds a tracer whose flight recorder keeps the slowest
// keep spans per class (0 picks the default).
func NewTracer(keep int) *Tracer { return obs.NewTracer(keep) }

// NewTraceRegistry builds an empty telemetry registry.
func NewTraceRegistry() *TraceRegistry { return obs.NewRegistry() }

// Continuous telemetry (package obs): the time-series sampler, the SLO
// health engine over it, and live HTTP exposition.
type (
	// Sampler snapshots every fabric ledger into per-series rings on
	// the sim clock, charging zero virtual time.
	Sampler = obs.Sampler
	// SampleConfig sizes a Sampler (FabricConfig.Sample).
	SampleConfig = obs.SampleConfig
	// SeriesDump is the sampler's full ring state as a JSON artifact.
	SeriesDump = obs.SeriesDump
	// SeriesData is one exported series with its points and rates.
	SeriesData = obs.SeriesData
	// SeriesPoint is one sample: virtual time and value.
	SeriesPoint = obs.SeriesPoint
	// Monitor is the SLO health engine: burn-rate, drift, and
	// threshold watches over sampled series, plus the typed health
	// event timeline.
	Monitor = obs.Monitor
	// MonitorConfig tunes the health engine (FabricConfig.Monitor).
	MonitorConfig = obs.MonitorConfig
	// HealthEvent is one typed occurrence on the health timeline.
	HealthEvent = obs.HealthEvent
	// HealthEventKind classifies a health event.
	HealthEventKind = obs.EventKind
	// EventSink receives health events; the acting layers hold one.
	EventSink = obs.EventSink
	// Exposition serves live telemetry over HTTP (/metrics, /snapshot,
	// /series, /events, /profile).
	Exposition = obs.Exposition
)

// Resource profiling (package obs): per-resource busy-time attribution
// with exact closure, utilization gauges and the flame export.
type (
	// Profiler attributes every tapped server's busy time to a typed
	// resource and cause (FabricConfig.Profile wires one up).
	Profiler = obs.Profiler
	// ResourceKind types a profiled resource (chip, channel, link,
	// cpu, lock).
	ResourceKind = obs.ResourceKind
	// ResourceProfile is one resource's attributed window.
	ResourceProfile = obs.ResourceProfile
	// Profile is one profiler snapshot: resources, wait overlays, and
	// the folded-stack flame export.
	Profile = obs.Profile
	// TopResource names a kind's most-utilized resource and the cause
	// holding most of its time.
	TopResource = obs.TopResource
)

// Resource kinds.
const (
	// ResChip is a NAND chip (its LUN servers as one group).
	ResChip = obs.ResChip
	// ResChannel is a flash bus channel.
	ResChannel = obs.ResChannel
	// ResLink is a device's host interconnect.
	ResLink = obs.ResLink
	// ResCPU is a stack submission/completion core.
	ResCPU = obs.ResCPU
	// ResLock is the single-queue stack's shared submission lock.
	ResLock = obs.ResLock
)

// NewProfiler returns an empty resource profiler; Attach taps servers
// into it.
func NewProfiler() *Profiler { return obs.NewProfiler() }

// Health event kinds.
const (
	// EventLeaseGrant: the device granted a GC-deferral lease.
	EventLeaseGrant = obs.EventLeaseGrant
	// EventLeaseDecline: the device refused a lease (urgent headroom).
	EventLeaseDecline = obs.EventLeaseDecline
	// EventFloorHit: the free-pool floor forced a collection.
	EventFloorHit = obs.EventFloorHit
	// EventForcedGC: collection ran despite an active deferral lease.
	EventForcedGC = obs.EventForcedGC
	// EventGCStorm: the floor-hit rate crossed its watch threshold.
	EventGCStorm = obs.EventGCStorm
	// EventAdmissionCollapse: the reject fraction crossed its threshold.
	EventAdmissionCollapse = obs.EventAdmissionCollapse
	// EventFloorProximity: GC headroom dropped below its watch floor.
	EventFloorProximity = obs.EventFloorProximity
	// EventDrift: observed service time drifted off its latched baseline.
	EventDrift = obs.EventDrift
	// EventSLOBurn: both burn-rate windows exceeded the error budget.
	EventSLOBurn = obs.EventSLOBurn
	// EventSLOClear: a firing SLO alert cleared after quiet windows.
	EventSLOClear = obs.EventSLOClear
	// EventMigrationStart: a replica began evacuating its device.
	EventMigrationStart = obs.EventMigrationStart
	// EventMigrationFinish: the replica set swapped onto the new device.
	EventMigrationFinish = obs.EventMigrationFinish
	// EventMigrationAbort: the copy was abandoned; the source stays.
	EventMigrationAbort = obs.EventMigrationAbort
	// EventAutoscaleWalk: the SLO controller moved workers or rates.
	EventAutoscaleWalk = obs.EventAutoscaleWalk
	// EventDeviceDown: a device died; its replicas are lost.
	EventDeviceDown = obs.EventDeviceDown
	// EventRepairStart: a group began rebuilding onto a spare slot.
	EventRepairStart = obs.EventRepairStart
	// EventRepairDone: the rebuilt replica joined; full strength again.
	EventRepairDone = obs.EventRepairDone
	// EventRepairAbort: the rebuild was abandoned (no spare, source
	// lost); the group stays degraded.
	EventRepairAbort = obs.EventRepairAbort
)

// NewTelemetrySampler builds a sampler with the given period and ring
// capacity (zeros pick 1ms and 256 points).
func NewTelemetrySampler(interval Time, capacity int) *Sampler {
	return obs.NewSampler(interval, capacity)
}

// NewMonitor builds a health engine over a sampler's series; the
// tracer may be nil (alerts then carry no span explanations).
func NewMonitor(sam *Sampler, tracer *Tracer, cfg MonitorConfig) *Monitor {
	return obs.NewMonitor(sam, tracer, cfg)
}

// NewExposition returns an HTTP exposition with no sources attached;
// Set installs a live run's registry, sampler and monitor.
func NewExposition() *Exposition { return obs.NewExposition() }

// Fault injection (package faults).
type (
	// FaultInjector arms a fault plan against a target and fires it at
	// exact virtual times — deterministically reproducible per seed.
	FaultInjector = faults.Injector
	// FaultPlan is one scenario's scheduled failures.
	FaultPlan = faults.Plan
	// FaultInjection is one scheduled failure.
	FaultInjection = faults.Injection
	// FaultKind classifies an injectable failure mode.
	FaultKind = faults.Kind
	// FaultPlanConfig bounds the schedules RandomFaultPlan draws.
	FaultPlanConfig = faults.PlanConfig
	// FaultTarget is the fault surface the harness drives; Fabric
	// implements it.
	FaultTarget = faults.Target
	// RepairLedger is the placement layer's failure-domain accounting:
	// deaths, degraded serving, rebuilds, aborts, crash resyncs.
	RepairLedger = metrics.RepairLedger
)

// Failure modes.
const (
	// FaultKillDevice fails a whole device permanently.
	FaultKillDevice = faults.KillDevice
	// FaultStallDevice freezes a device's controller for a duration.
	FaultStallDevice = faults.StallDevice
	// FaultSlowDevice scales a device's flash timings (aging, throttle).
	FaultSlowDevice = faults.SlowDevice
	// FaultKillChip fails a single flash die.
	FaultKillChip = faults.KillChip
	// FaultStallChip freezes a single flash die for a duration.
	FaultStallChip = faults.StallChip
	// FaultSlowChip scales a single flash die's timings.
	FaultSlowChip = faults.SlowChip
)

// ErrDeviceDown reports a request routed at a shard whose device died;
// the placement layer retries surviving replicas before surfacing it.
var ErrDeviceDown = serve.ErrDeviceDown

// NewFaultInjector builds an injector driving t (typically a Fabric).
func NewFaultInjector(eng *Engine, t FaultTarget) *FaultInjector {
	return faults.NewInjector(eng, t)
}

// RandomFaultPlan draws a reproducible fault schedule from seed.
func RandomFaultPlan(seed uint64, cfg FaultPlanConfig) FaultPlan {
	return faults.RandomPlan(seed, cfg)
}

// Workloads.
type (
	// Workload generates uFLIP-style access patterns.
	Workload = workload.Generator
	// WorkloadPattern names a pattern (SR, RR, SW, RW, ...).
	WorkloadPattern = workload.Pattern
)

// uFLIP patterns.
const (
	SR  = workload.SR
	RR  = workload.RR
	SW  = workload.SW
	RW  = workload.RW
	ZR  = workload.ZR
	ZW  = workload.ZW
	MIX = workload.MIX
)

// NewWorkload builds a pattern generator over LPNs [0, span).
func NewWorkload(p WorkloadPattern, span int64, seed uint64) (*Workload, error) {
	return workload.NewGenerator(p, span, seed)
}

// Experiments.
type (
	// Experiment is one runner from the E1-E23 suite.
	Experiment = experiments.Runner
	// ExperimentResult is a runner's tables, figures and finding.
	ExperimentResult = experiments.Result
	// ExperimentScale selects Quick or Full effort.
	ExperimentScale = experiments.Scale
)

// Experiment scales.
const (
	// Quick keeps runtimes interactive.
	Quick = experiments.Quick
	// Full is the report scale.
	Full = experiments.Full
)

// Experiments lists the full E1-E23 suite in paper order.
func Experiments() []Experiment { return experiments.All }
