package kvstore

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/pcm"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/wal"
)

// System bundles a Store with where it lives, so experiments can crash
// the machine (losing volatile state) and reopen the store from the
// surviving media.
type System struct {
	Store *Store

	at layout
}

// layout is where a store lives. Every builder makes one and opens the
// store on it with build; Reopen opens it again. Only the whole-device
// BuildProgressive speaks the paper's interface: a shard's layout is
// always the block interface.
type layout struct {
	// stack carries the page region, and the log region on the block
	// interface.
	stack *blockdev.Stack
	// membus holds the log at [0, logBytes) when the store speaks the
	// paper's interface; nil on the block interface, where the log is
	// the region's first LogPages.
	membus   *pcm.MemBus
	logBytes int64
	region   ShardRegion
	// owns reports whether Crash may drop the device's volatile state.
	// Shard systems share their device with siblings, so the owning
	// Fabric crashes the device once for all of them.
	owns bool
}

// build opens a store on at, running recovery if the media hold a
// previous incarnation's state. It must be called from a simulated
// process.
func build(p *sim.Proc, eng *sim.Engine, at layout, cfg Config) (*System, error) {
	r := at.region
	var log core.LogDevice
	var peer *ssd.Device
	pagesBase := r.Base
	if at.membus == nil {
		if r.LogPages <= 0 || r.LogPages >= r.Span {
			return nil, fmt.Errorf("kvstore: log %d pages out of span %d", r.LogPages, r.Span)
		}
		blog, err := core.NewBlockLog(at.stack, r.Base, r.LogPages)
		if err != nil {
			return nil, err
		}
		blog.SetTenant(r.Tenant)
		blog.SetSubmitCore(r.SubmitCore)
		log, pagesBase = blog, r.Base+r.LogPages
	} else {
		dev, ok := at.stack.Device().(*ssd.Device)
		if !ok {
			return nil, fmt.Errorf("kvstore: the paper's interface needs an extended device, have %T", at.stack.Device())
		}
		// The meta flip is an atomic write: refuse a device that would
		// reject it at the first checkpoint, after commits were acked.
		if !dev.BufferSafe() {
			return nil, fmt.Errorf("kvstore: %s: %w", dev.Name(), ssd.ErrAtomicUnsupported)
		}
		plog, err := core.NewPCMLog(at.membus, 0, at.logBytes)
		if err != nil {
			return nil, err
		}
		log, peer = plog, dev
	}
	pages, err := core.NewStackPagesRegion(at.stack, pagesBase, r.Base+r.Span-pagesBase)
	if err != nil {
		return nil, err
	}
	writes := r.Background
	if writes == nil {
		writes = r.Tenant
	}
	pages.SetTenants(r.Tenant, writes)

	if cfg.CacheFrames <= 0 {
		cfg.CacheFrames = 256
	}
	if cfg.CheckpointBytes <= 0 {
		cfg.CheckpointBytes = 256 << 10
	}
	w := wal.New(eng, log)
	cache, err := bufpool.New(pages, cfg.CacheFrames)
	if err != nil {
		return nil, err
	}
	s := &Store{
		eng:      eng,
		log:      w,
		pages:    pages,
		cache:    cache,
		cfg:      cfg,
		peer:     peer,
		metaBase: pagesBase,
		active:   make(map[uint64]int64),
	}
	if err := s.recover(p); err != nil {
		return nil, err
	}
	return &System{Store: s, at: at}, nil
}

// BuildConservative assembles the baseline: one flash device behind the
// single-queue block layer holding both the WAL (first logPages pages)
// and the tree pages; metadata uses the double-write discipline; no
// trims.
func BuildConservative(p *sim.Proc, eng *sim.Engine, flash ssd.Dev, logPages int64, cpus int, cfg Config) (*System, error) {
	return buildDevice(p, eng, flash, blockdev.SingleQueue, layout{region: ShardRegion{LogPages: logPages}}, cpus, cfg)
}

// BuildProgressive assembles the paper's stack: WAL on memory-bus PCM,
// tree pages on flash via the direct path, atomic meta writes, trims
// for freed pages. flash must have a safe write buffer.
func BuildProgressive(p *sim.Proc, eng *sim.Engine, flash *ssd.Device, membus *pcm.MemBus, logBytes int64, cpus int, cfg Config) (*System, error) {
	return buildDevice(p, eng, flash, blockdev.Direct, layout{membus: membus, logBytes: logBytes}, cpus, cfg)
}

// buildDevice opens a store on layout at over the whole of flash, behind
// a stack of its own in mode (cpus cores; 0 = the mode's default).
func buildDevice(p *sim.Proc, eng *sim.Engine, flash ssd.Dev, mode blockdev.Mode, at layout, cpus int, cfg Config) (*System, error) {
	scfg := blockdev.DefaultConfig(mode)
	if cpus > 0 {
		scfg.CPUs = cpus
	}
	stack, err := blockdev.New(eng, flash, scfg)
	if err != nil {
		return nil, err
	}
	at.stack, at.owns = stack, true
	at.region.Span = flash.Capacity()
	return build(p, eng, at, cfg)
}

// Crash models power loss and restart: every commit still waiting for
// the log writer fails with ErrClosed, volatile device state is
// dropped, all host memory is forgotten, and a fresh System is opened
// from the surviving media, running recovery. The old System must not
// be used afterwards. It returns the LPNs the device lost from a
// volatile write cache (nil for safe buffers).
//
// Shard systems built over a shared device (BuildShardConservative)
// must not be crashed individually — dropping the shared device's
// volatile state would silently corrupt sibling shards still holding
// host state. Their Fabric crashes the device once and Reopens every
// shard.
func (sys *System) Crash(p *sim.Proc) (*System, []int64, error) {
	if !sys.at.owns {
		return nil, nil, fmt.Errorf("kvstore: shard system shares its device; crash the fabric instead")
	}
	// The host goes first: the sync in flight drains off the device
	// before its volatile state does, so nothing the old store issued
	// lands after the crash.
	sys.Store.log.Close(ErrClosed)
	sys.Store.log.Drain(p)
	var lost []int64
	if d, ok := sys.at.stack.Device().(*ssd.Device); ok {
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
// and reopens the store on the same layout from the surviving media,
// running recovery. Unlike Crash it leaves the device's volatile state
// alone: callers orchestrating a multi-shard crash close every shard's
// log, drop the device state once, then Reopen each shard.
func (sys *System) Reopen(p *sim.Proc) (*System, error) {
	sys.Store.closed = true
	sys.Store.log.Close(ErrClosed)
	return build(p, sys.Store.eng, sys.at, sys.Store.cfg)
}
