package kvstore

// Shard assemblies: many Systems carved out of one device behind one
// shared block-layer stack, each tagged as its own scheduler tenant.
// This is the substrate of the serving fabric (package serve): the
// device fabric is shared, the stores are not.

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/pcm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/wal"
)

// ShardRegion names one shard's slice of the shared hardware.
type ShardRegion struct {
	// Base and Span delimit the shard's page region [Base, Base+Span) on
	// the flash device under the shared stack.
	Base, Span int64
	// LogPages (conservative assembly) is the WAL region at the start of
	// the page span.
	LogPages int64
	// LogBase and LogBytes (progressive assembly) delimit the shard's
	// WAL region on the shared memory-bus PCM.
	LogBase, LogBytes int64
	// Tenant tags all of the shard's I/O on the shared stack's scheduler
	// (nil = untagged).
	Tenant *sched.Tenant
	// SubmitCore picks the stack core for the shard's WAL traffic.
	SubmitCore int
}

// BuildShardConservative assembles a store over region [Base, Base+Span)
// of the device under a shared stack: WAL in the first LogPages pages of
// the region, tree pages in the rest, double-write metadata. All I/O is
// tagged with the region's tenant.
func BuildShardConservative(p *sim.Proc, eng *sim.Engine, stack *blockdev.Stack, r ShardRegion, cfg Config) (*System, error) {
	if r.LogPages <= 0 || r.LogPages >= r.Span {
		return nil, fmt.Errorf("kvstore: shard log %d pages out of span %d", r.LogPages, r.Span)
	}
	blog, err := core.NewBlockLog(stack, r.Base, r.LogPages)
	if err != nil {
		return nil, err
	}
	blog.SetTenant(r.Tenant)
	blog.SetSubmitCore(r.SubmitCore)
	pages, err := core.NewStackPagesRegion(stack, r.Base+r.LogPages, r.Span-r.LogPages)
	if err != nil {
		return nil, err
	}
	pages.SetTenant(r.Tenant)
	cfg.MetaMode = MetaDoubleWrite
	cfg.AtomicDevice = nil
	st, err := Open(p, eng, wal.New(eng, blog), pages, cfg)
	if err != nil {
		return nil, err
	}
	sys := &System{Store: st, flash: stack.Device()}
	sys.rebuild = func(p *sim.Proc) (*System, error) {
		return BuildShardConservative(p, eng, stack, r, cfg)
	}
	return sys, nil
}

// BuildShardProgressive assembles a store with its WAL on a region of
// shared memory-bus PCM and its tree pages on region [Base, Base+Span)
// of the flash device under a shared stack, metadata flipped with the
// device's atomic write at the region base, freed pages trimmed.
func BuildShardProgressive(p *sim.Proc, eng *sim.Engine, stack *blockdev.Stack, membus *pcm.MemBus, r ShardRegion, cfg Config) (*System, error) {
	dev, ok := stack.Device().(*ssd.Device)
	if !ok {
		return nil, fmt.Errorf("kvstore: progressive shard needs an extended device, have %T", stack.Device())
	}
	plog, err := core.NewPCMLog(membus, r.LogBase, r.LogBytes)
	if err != nil {
		return nil, err
	}
	pages, err := core.NewStackPagesRegion(stack, r.Base, r.Span)
	if err != nil {
		return nil, err
	}
	pages.SetTenant(r.Tenant)
	cfg.MetaMode = MetaAtomic
	cfg.AtomicDevice = dev
	cfg.AtomicBase = r.Base
	cfg.TrimFreed = true
	st, err := Open(p, eng, wal.New(eng, plog), pages, cfg)
	if err != nil {
		return nil, err
	}
	sys := &System{Store: st, flash: dev}
	sys.rebuild = func(p *sim.Proc) (*System, error) {
		return BuildShardProgressive(p, eng, stack, membus, r, cfg)
	}
	return sys, nil
}
