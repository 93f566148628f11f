// Package sched is a multi-tenant I/O scheduler for the submission
// path. The paper's thesis is that the block interface must die because
// it hides the information both sides need to schedule well; once host
// and device are communicating peers (package core), the host can run
// real per-tenant arbitration right above the device queue. This
// package provides that arbitration.
//
// # Tenant classes
//
// Every traffic source registers as a Tenant in one of two classes:
//
//   - LatencySensitive: per-request tail latency is the metric (point
//     lookups, commit waits). These tenants are protected by the
//     GC-aware policies below and are the trigger for host→device GC
//     coordination.
//   - Throughput: aggregate bandwidth is the metric (scans, batch
//     loads, background maintenance). These tenants tolerate bounded
//     deferral when the device is collecting.
//
// Arbitration across tenants is weighted deficit-round-robin fair
// queueing over per-request *costs* (a write can be billed near the
// program/read service-time ratio via blockdev.Config.WriteCost), so
// one noisy neighbor cannot monopolize the device queue no matter how
// expensive its requests are.
//
// # Where a tenant queue is bounded
//
// Not here: sched queues everything it is given. A tenant's queue is
// bounded by its shard's admission ring (package serve refuses a
// request at admission, before it reaches a worker) and by the shard's
// WorkersPerShard, the most requests its workers can have submitted at
// once.
//
// # Where a dispatch's wait goes
//
// A dispatch's queue wait (enqueue to dispatch) is recorded twice and
// only twice: in its class's WaitTotals entry, which the resource
// profiler reads as a wait source, and in the request's trace span
// (the sched stage), when it has one.
//
// # The GC conversation (both halves of the peer interface)
//
// Device→host: SetGCActiveChips is the notification sink for
// ssd.Device.SetGCNotifier. Throughput-class dispatches are deferred
// (for a bounded time) while the device reports active collection and
// a latency-sensitive tenant has requests at risk.
//
// Host→device: with Config.GCCoordinate, the scheduler drives the
// device's GC control surface (GCControl, wired by
// blockdev.Stack.AttachScheduler on every stack mode). While any
// latency-sensitive request is queued it leases deferrals of
// background collection, renewed while the burst persists, and
// releases the lease when the burst drains. The device bounds every
// lease with its own free-pool floor, so the host can be greedy
// without being dangerous.
// With Config.GCLeaseAdaptive the slice is sized by the device's
// reported urgency on every lease decision (full when relaxed, half
// when elevated, declined without a round-trip when urgent — the
// adaptive control plane's GC loop, measured by E18).
// GCCoord returns the host side of the control-traffic ledger (leases
// requested, resumes, local declines); the device counts what it
// granted and refused. The policy's
// fixed parameters (DRR quantum, deferral bound, lease length, lease
// backlog) are the const block beside Config.
//
// The scheduler is pull-based: a downstream stack (package blockdev)
// enqueues tenant-tagged requests in batches (EnqueueBatch) and drains as many dispatches as device-queue slots
// are free (NextBatch) whenever one frees. When nothing is eligible now
// but will be later (a GC deferral expiring), the scheduler arms a virtual-time timer and invokes the registered kick
// callback so the stack pulls again.
package sched
