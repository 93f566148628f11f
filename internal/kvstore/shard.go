package kvstore

// Shard assemblies: many Systems carved out of one device behind one
// shared block-layer stack, each tagged with scheduler tenants of its own.
// This is the substrate of the serving fabric (package serve): the
// device fabric is shared, the stores are not.

import (
	"repro/internal/blockdev"
	"repro/internal/sched"
	"repro/internal/sim"
)

// ShardRegion names one shard's slice of the shared device.
type ShardRegion struct {
	// Base and Span delimit the shard's page region [Base, Base+Span) on
	// the flash device under the shared stack.
	Base, Span int64
	// LogPages is the WAL region at the start of the page span, on the
	// block interface (a whole-device store on the paper's interface
	// logs to PCM instead and leaves it zero).
	LogPages int64
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
