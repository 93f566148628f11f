package serve

// Fault control: the fabric-level surface the fault-injection harness
// (package faults) drives. Device death is the first-class event — it
// trips every shard on the device, emits a device-down health event,
// and fires the callbacks replica placement repairs on. Stalls, slow
// chips and single-device crashes are the milder injections the same
// harness schedules.

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/sim"
)

// KillDevice kills device d: the device drops its volatile buffer and
// fails every future command, every shard on it goes down (queued
// requests fail loudly with ErrDeviceDown, workers exit), the monitor
// records a device-down event, and the OnDeviceDown callbacks fire —
// in that order, all inside one simulation event, so a subscriber sees
// the fabric already degraded when it is told. Killing a dead device
// is a no-op.
func (f *Fabric) KillDevice(d int) {
	if d < 0 || d >= len(f.groups) || f.groups[d].down {
		return
	}
	g := f.groups[d]
	g.down = true
	g.dev.Kill()
	lost := 0
	for _, sh := range f.shards {
		if sh.dev != d || sh.down {
			continue
		}
		lost++
		sh.down = true
		sh.failBacklog(ErrDeviceDown)
		sh.releaseWorkers()
	}
	f.monitor.Emit(obs.HealthEvent{
		Kind: obs.EventDeviceDown, At: f.eng.Now(),
		Name:   g.dev.Name(),
		Detail: fmt.Sprintf("device %d down, %d replicas lost", d, lost),
		Value:  float64(lost),
	})
	for _, fn := range f.onDeviceDown {
		fn(d)
	}
}

// DeviceDown reports whether device d has been killed.
func (f *Fabric) DeviceDown(d int) bool {
	return d >= 0 && d < len(f.groups) && f.groups[d].down
}

// OnDeviceDown subscribes fn to device deaths; it fires inside the
// KillDevice event with the dead device's index.
func (f *Fabric) OnDeviceDown(fn func(d int)) {
	f.onDeviceDown = append(f.onDeviceDown, fn)
}

// StallDevice freezes device d's controller for dur (firmware hang):
// commands queue behind the stall and complete late.
func (f *Fabric) StallDevice(d int, dur sim.Time) {
	if xd := f.Device(d); xd != nil {
		xd.Stall(dur)
	}
}

// SlowDevice scales device d's flash timings (read, program, erase
// latency factors) — media-level aging or thermal throttling, the
// drift signal the Mover evacuates on.
func (f *Fabric) SlowDevice(d int, read, program, erase float64) {
	if xd := f.Device(d); xd != nil {
		xd.AgeTiming(read, program, erase)
	}
}

// Chips reports device d's flash chip count (0 when out of range or
// chipless).
func (f *Fabric) Chips(d int) int {
	if xd := f.Device(d); xd != nil {
		return xd.Chips()
	}
	return 0
}

// KillChip kills one flash die on device d: programs and erases fail,
// reads return uncorrectable data, and the FTL retires its blocks.
func (f *Fabric) KillChip(d, chip int) {
	if xd := f.Device(d); xd != nil {
		xd.KillChip(chip)
	}
}

// StallChip freezes one flash die on device d for dur.
func (f *Fabric) StallChip(d, chip int, dur sim.Time) {
	if xd := f.Device(d); xd != nil {
		xd.StallChip(chip, dur)
	}
}

// SlowChip scales one flash die's latencies on device d.
func (f *Fabric) SlowChip(d, chip int, read, program, erase float64) {
	if xd := f.Device(d); xd != nil {
		xd.SlowChip(chip, read, program, erase)
	}
}

// Crash models whole-fabric power loss and restart: every queued
// request fails with ErrCrashed, drains in flight finish, every put
// whose commit is still waiting for its log sync fails with ErrCrashed
// (its acknowledgement was host memory), then every device drops its
// volatile state once and every shard reopens from the surviving media,
// running recovery — the kvstore.System crash machinery applied per
// shard over shared hardware. No shard serves while any sibling is
// still reopening; submissions during the crash fail with ErrCrashed.
// Serving resumes once Crash returns.
func (f *Fabric) Crash(p *sim.Proc) error {
	f.crashing = true
	defer func() { f.crashing = false }()
	return f.crashReopen(p, func(int) bool { return true })
}

// CrashDevice models sudden power loss and restart of a single device
// while the rest of the fabric keeps serving: device d drops its
// volatile state once, and every shard on it fails its backlog with
// ErrCrashed, quiesces, and reopens from the surviving media. Unlike
// fabric-wide Crash the other devices' shards serve throughout —
// which is exactly the stale-replica hazard: a reopened replica has
// lost its volatile acks while its survivors kept every one, so
// replica placement must resync it from a survivor before routing to
// it again (Placement.CrashDevice orchestrates that).
func (f *Fabric) CrashDevice(p *sim.Proc, d int) error {
	if d < 0 || d >= len(f.groups) {
		return fmt.Errorf("serve: device %d out of range", d)
	}
	if f.groups[d].down {
		return fmt.Errorf("serve: device %d is dead, not crashable", d)
	}
	return f.crashReopen(p, func(dev int) bool { return dev == d })
}

// crashReopen is the power-loss sequence over the devices pick selects.
// The backlog of every shard on them fails before any device is
// touched, so no shard can serve pre-crash host state while a sibling
// reopens; workers mid-drain quiesce; every put whose commit is still
// waiting for its sync then fails with ErrCrashed (its acknowledgement
// was in host memory the power took), and the syncs in flight drain off
// the device; each device drops its volatile state once; each shard
// reopens from the surviving media. A dead device has nothing left to
// lose and its shards cannot reopen; a shard retired while the others
// quiesced no longer owns its region.
func (f *Fabric) crashReopen(p *sim.Proc, pick func(d int) bool) error {
	var mine []*Shard
	for _, sh := range f.shards {
		if pick(sh.dev) {
			mine = append(mine, sh)
			sh.failBacklog(ErrCrashed)
		}
	}
	for slices.ContainsFunc(mine, func(sh *Shard) bool { return sh.busy > 0 }) {
		p.Sleep(10 * sim.Microsecond)
	}
	for _, sh := range mine {
		sh.sys.Store.WAL().Close(ErrCrashed)
	}
	for _, sh := range mine {
		sh.sys.Store.WAL().Drain(p)
	}
	for d, g := range f.groups {
		if pick(d) && !g.down {
			g.dev.Crash()
		}
	}
	for _, sh := range mine {
		if sh.down || sh.retired {
			continue
		}
		fresh, err := sh.sys.Reopen(p)
		if err != nil {
			return fmt.Errorf("serve: reopen shard %d: %w", sh.idx, err)
		}
		sh.sys = fresh
	}
	return nil
}
