package kvstore

// Shard assemblies: many Systems carved out of one device behind one
// shared block-layer stack, each tagged with scheduler tenants of its own.
// This is the substrate of the serving fabric (package serve): the
// device fabric is shared, the stores are not.

import (
	"repro/internal/blockdev"
	"repro/internal/pcm"
	"repro/internal/sched"
	"repro/internal/sim"
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
	// Tenant tags the shard's foreground I/O on the shared stack's
	// scheduler: its WAL traffic and its page reads (nil = untagged).
	Tenant *sched.Tenant
	// Background tags the shard's page writes: a checkpoint's
	// copy-on-write pages and, on the block interface, its meta write,
	// so they can queue behind the reads a client waits on (nil =
	// Tenant).
	Background *sched.Tenant
	// SubmitCore picks the stack core for the shard's WAL traffic.
	SubmitCore int
}

// BuildShardConservative assembles a store over region [Base, Base+Span)
// of the device under a shared stack: WAL in the first LogPages pages of
// the region, tree pages in the rest, double-write metadata. Page
// writes are tagged with the region's Background tenant, everything
// else with its Tenant.
func BuildShardConservative(p *sim.Proc, eng *sim.Engine, stack *blockdev.Stack, r ShardRegion, cfg Config) (*System, error) {
	return build(p, eng, layout{stack: stack, region: r}, cfg)
}

// BuildShardProgressive assembles a store with its WAL on a region of
// shared memory-bus PCM and its tree pages on region [Base, Base+Span)
// of the flash device under a shared stack, metadata flipped with the
// device's atomic write at the region base, freed pages trimmed. The
// device must have a safe write buffer.
func BuildShardProgressive(p *sim.Proc, eng *sim.Engine, stack *blockdev.Stack, membus *pcm.MemBus, r ShardRegion, cfg Config) (*System, error) {
	return build(p, eng, layout{stack: stack, membus: membus, region: r}, cfg)
}
