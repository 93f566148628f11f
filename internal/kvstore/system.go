package kvstore

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pcm"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/wal"
)

// System bundles a Store with the devices underneath it, so experiments
// can crash the machine (losing volatile state) and reopen the store
// from the surviving media.
type System struct {
	Store *Store

	flash ssd.Dev

	// rebuild reopens the same assembly from surviving media (the host
	// half of a crash). Every builder installs one, so shard flavors and
	// whole-device flavors share the crash machinery.
	rebuild func(p *sim.Proc) (*System, error)

	// ownsDevice reports whether Crash may drop the device's volatile
	// state. Shard systems share their device with siblings, so the
	// owning Fabric crashes the device once for all of them.
	ownsDevice bool
}

// BuildConservative assembles the baseline: one flash device behind the
// single-queue block layer holding both the WAL (first logPages pages)
// and the tree pages; metadata uses the double-write discipline; no
// trims.
func BuildConservative(p *sim.Proc, eng *sim.Engine, flash ssd.Dev, logPages int64, cpus int, cfg Config) (*System, error) {
	cs, err := core.NewConservative(eng, flash, logPages, cpus)
	if err != nil {
		return nil, err
	}
	cfg.MetaMode = MetaDoubleWrite
	cfg.AtomicDevice = nil
	st, err := Open(p, eng, wal.New(eng, cs.Log), cs.Pages, cfg)
	if err != nil {
		return nil, err
	}
	sys := &System{Store: st, flash: flash, ownsDevice: true}
	sys.rebuild = func(p *sim.Proc) (*System, error) {
		return BuildConservative(p, eng, flash, logPages, cpus, cfg)
	}
	return sys, nil
}

// BuildProgressive assembles the paper's stack: WAL on memory-bus PCM,
// tree pages on flash via the direct path, atomic meta writes, trims
// for freed pages.
func BuildProgressive(p *sim.Proc, eng *sim.Engine, flash *ssd.Device, membus *pcm.MemBus, logBytes int64, cpus int, cfg Config) (*System, error) {
	cs, err := core.NewProgressive(eng, membus, logBytes, flash, cpus)
	if err != nil {
		return nil, err
	}
	cfg.MetaMode = MetaAtomic
	cfg.AtomicDevice = flash
	cfg.TrimFreed = true
	st, err := Open(p, eng, wal.New(eng, cs.Log), cs.Pages, cfg)
	if err != nil {
		return nil, err
	}
	sys := &System{Store: st, flash: flash, ownsDevice: true}
	sys.rebuild = func(p *sim.Proc) (*System, error) {
		return BuildProgressive(p, eng, flash, membus, logBytes, cpus, cfg)
	}
	return sys, nil
}

// Crash models power loss and restart: every commit still waiting for
// the log writer fails with ErrClosed, volatile device state is
// dropped, all host memory is forgotten, and a fresh System is opened
// from the surviving media, running recovery. The old System must not
// be used afterwards. It returns the LPNs the device lost from a
// volatile write cache (nil for safe buffers).
//
// Shard systems built over a shared device (BuildShard*) must not be
// crashed individually — dropping the shared device's volatile state
// would silently corrupt sibling shards still holding host state. Their
// Fabric crashes the device once and Reopens every shard.
func (sys *System) Crash(p *sim.Proc) (*System, []int64, error) {
	if !sys.ownsDevice {
		return nil, nil, fmt.Errorf("kvstore: shard system shares its device; crash the fabric instead")
	}
	// The host goes first: the sync in flight drains off the device
	// before its volatile state does, so nothing the old store issued
	// lands after the crash.
	sys.Store.log.Close(ErrClosed)
	sys.Store.log.Drain(p)
	var lost []int64
	if d, ok := sys.flash.(*ssd.Device); ok {
		lost = d.Crash()
	}
	fresh, err := sys.Reopen(p)
	if err != nil {
		return nil, lost, err
	}
	return fresh, lost, nil
}

// Reopen forgets all host memory — commits still waiting for the log
// writer fail with ErrClosed, unless the caller closed the log first —
// and reopens the same assembly from the surviving media, running
// recovery. Unlike Crash it leaves the device's volatile state alone:
// callers orchestrating a multi-shard crash close every shard's log,
// drop the device state once, then Reopen each shard.
func (sys *System) Reopen(p *sim.Proc) (*System, error) {
	sys.Store.closed = true
	sys.Store.log.Close(ErrClosed)
	return sys.rebuild(p)
}
