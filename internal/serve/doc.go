// Package serve is the sharded multi-tenant KV serving fabric: the
// layer that turns "storage stacks under a synthetic driver" into a
// servable system. A Fabric owns one or more flash devices
// (ssd.Enterprise2012Suspend, whose chips suspend an erase to serve a
// read; Config.EraseStalls builds the paper's Enterprise2012), each behind
// one block-layer stack with an attached multi-tenant scheduler, and
// carves N Shards out of them — each shard a full kvstore.System
// (WAL + copy-on-write B+tree) registered, with Config.Scheduled, as
// its own scheduler tenant, so the device-level arbiter isolates shards
// from each other's I/O. A
// Frontend hash-routes keys to shards and drives client populations
// from workload.TenantSpec mixes.
//
// # Admission semantics
//
// The fabric enforces per-shard SLOs at admission time, where the paper
// says policy belongs once host and device are communicating peers.
// With AdmissionConfig.Enabled, each shard has:
//
//   - a bounded request queue (QueueLimit): arrivals past it fail
//     immediately with ErrRejected rather than backlogging;
//   - a token-bucket arrival cap (Rate/Burst): an empty bucket rejects
//     rather than queueing;
//   - per-class deadlines (LatencyDeadline, ThroughputDeadline):
//     served requests that outlive their class deadline count as
//     deadline misses in metrics.ShardStats, next to the admission
//     ledger and metrics.TenantLatencies' latency ledger.
//
// Experiment E16 measures what that buys under overload.
//
// With AdmissionConfig.Adaptive, the static deadlines become the seed
// of an observed-service-time loop: each shard records per-request
// service times into a metrics.Estimator, per-class deadlines derive
// from the observed p99 (clamped around the static SLO), and arrivals
// whose queue position already implies a deadline miss are rejected at
// admission (p99-aware early drop). The worker pool is fixed at
// WorkersPerShard: growing it on deadline misses only piles more
// requests onto a device that is already the bottleneck. Experiment E18
// measures the adaptive plane against the static one on devices that
// age mid-run.
//
// # Order within a drain
//
// A worker drains up to Config.Batch.MaxOps queued ops at a time and
// serves the drain's gets and scans first, in arrival order, then hands
// every put of the drain to its store as one group commit
// (kvstore.ApplyBatchAsync: one log append run however the puts were
// interleaved with reads) and goes on to its next drain without waiting
// for the sync. The WAL's log writer syncs everything handed off while
// its previous sync ran in one go, and the group's puts settle — in
// arrival order, groups in hand-off order — from the durability
// callback: a put is acknowledged once its commit record is on the
// device, and only then is it visible to gets. The ops of a drain are
// all queued and un-acked, and a pool of two or more workers serves such
// ops out of arrival order anyway, so this is inside the ordering a
// shard already offers; order among the puts — what decides the value a
// key ends up holding — is kept. A worker that finds its store's
// memtable full at the end of a drain runs the checkpoint before it
// drains again.
//
// What it gives up: a one-worker shard (WorkersPerShard 1) used to
// serve strictly in arrival order, so a get pipelined behind an un-acked
// put on the same key saw that put. It no longer does — the get is
// served first inside one drain, and in a later drain while the put's
// sync is still in flight, and reads the value from before the put. Read-your-write holds from a
// put's acknowledgement, on any pool size; a client that needs it waits
// for the ack before it reads.
//
// Stop lets handed-off puts settle normally; Crash and CrashDevice fail
// every put whose commit is still waiting for its sync with ErrCrashed
// (counted as dropped, like a request queued at the power loss), exactly
// once, and the reopened stores hold every acknowledged put.
//
// # GC coordination across shards
//
// With Config.Sched.GCCoordinate, each device's scheduler also drives
// that device's GC control surface: because every shard on the device
// queues at the same scheduler (as its own tenant with Scheduled, in
// the shared untagged tenant without), the
// aggregate latency-class backlog of *all* its shards leases GC
// deferrals and releases them when the burst drains — per-device GC
// shaped fabric-wide, bounded by each device's own free-pool floor.
// Fabric.GCCoord merges the host- and device-side ledgers; experiment
// E17 measures the tail-latency and deadline-miss wins.
//
// # Telemetry
//
// Config.Telemetry is the one observability switch. On, the fabric
// builds the whole of package obs together: the tracer (threaded
// through every stack as it is built), the resource profiler, the 1 ms
// sampler, and the health monitor the schedulers, FTLs, placement and
// KillDevice emit into. Off, all four are nil and every hook is a nil
// check. None of it charges virtual time — experiments'
// TestTelemetryChargesNoVirtualTime pins that on the E20, E21 and E24
// cases — and all of it runs on the simulation thread. It leaves a run
// one way: Fabric.Registry's export (the profile source included) and
// the sampler's Dump, which deathbench writes with -obs and -series.
package serve
