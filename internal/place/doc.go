// Package place is the replica-placement subsystem over the serving
// fabric: the first layer where the device→host signals of the peer
// interface choose *where* I/O goes, not just when.
//
// A Placement groups each logical shard's physical replicas (built by
// serve.Config.Replicas on distinct devices, each its own scheduler
// tenant) into a ReplicaGroup that serves as one frontend routing
// target. Writes are committed on every replica before the ack —
// group-level admission refuses a write whole rather than half-apply
// it — and every read is routed per request by one rule, residency
// before device health. A point read goes to a replica that can answer
// it from memory (the key in its memtables, or every page of its path
// in its page cache: kvstore.Store.Resident) whenever the
// device-ranked pick could not. Only the reads that must reach a
// device, and every scan, are steered by device signals to the replica
// whose device currently looks healthiest: fewest chips
// garbage-collecting (the E15 notification), lowest reported GC
// urgency (the E17 control surface), lowest observed read service time
// (the E18 estimator), round-robin on a full tie. A device that starts
// collecting or aging stops receiving those reads the moment its
// signals say so, instead of every request pinned to it waiting the
// collection out. Residency is a signal only the host owns: a read
// that needs no device needs no healthy one. Neither the probe nor the
// device scores charge virtual time, and the steering ledger counts
// device-bound reads only (ResidentReads counts the rest).
//
// Bringing a replica level with its group while the group keeps
// serving is one protocol, Placement.sync: bulk copy from the healthiest
// member's consistent kvstore snapshot (a sick device is not asked to
// stream its own region), delta catch-up of the keys the write path
// touched meanwhile, then a brief cutover that holds new writes, drains
// in-flight ones, copies the final delta and joins the replica. A copy
// error, the death of the source's device or a fabric stop aborts the
// pass, and every exit — join or abort — leaves the group settled:
// migration cleared, held writes replayed. Three callers reach it. The
// Mover's live migration: when a device's windowed service-time trend
// trips its drift alarm (metrics.DriftAlarm over the stack's
// calibration estimator), each group's replica there is rebuilt
// elsewhere and the old one retires, freeing its region slot. The
// Mover's repair: a group that lost a replica to a device death is
// rebuilt onto a spare. And Placement.CrashDevice: a replica reopened
// after its device lost power resyncs from its survivor before it is
// routed to again. No acknowledged write is lost or served stale across
// any of them; experiments E19 and E22 verify that by read-back.
package place
