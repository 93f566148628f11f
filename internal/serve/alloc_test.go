package serve

import (
	"runtime"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestServingSteadyStateAllocs: a warmed fabric serves puts and gets
// through Frontend.Submit, the caller's op and closure reused, without
// allocating per op. A put's bytes are copied into its batch's pooled
// commit record and then into the memtable's arena, whose chunks, like
// the memtable's array, a retired memtable hands on once no pin is held;
// the worker's batch and the shard's queue are pooled. Only the
// checkpoints the filling memtables trigger allocate, at most 4 times
// each (kvstore.TestKVPathSteadyStateAllocs bounds one). The blocks have
// 32 pages, as the bench's kv device's do.
func TestServingSteadyStateAllocs(t *testing.T) { servingAllocs(t, 32) }

// TestServingSteadyStateAllocsOnSmallBlocks is the same gate on the
// serve tests' 16-page blocks: the write-back bursts of the two shards'
// logs free more dead payload buffers than one such block's pages, and
// the FTL keeps as many as its write buffer can write back at once, so
// the page writes after a burst still allocate nothing below the block
// interface.
func TestServingSteadyStateAllocsOnSmallBlocks(t *testing.T) { servingAllocs(t, 16) }

func servingAllocs(t *testing.T, pagesPerBlock int) {
	cfg := baseConfig(2)
	// A 32 KiB memtable fills some seven arena chunks between
	// checkpoints.
	cfg.DeviceOptions.PagesPerBlock = pagesPerBlock
	cfg.Store.CheckpointBytes = 32 << 10
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 500, 64)
		if err := fe.Preload(p); err != nil {
			t.Fatalf("preload: %v", err)
		}
		value := make([]byte, fe.ValueSize)
		settled := sim.NewCond(p.Engine())
		var serr error
		done := func(err error) { serr = err; settled.Fire() }
		rng := sim.NewRNG(1)
		var op Op
		const n = 8000
		// serveOps submits n ops one at a time, a put and a get of
		// random keys in turn.
		serveOps := func() {
			for i := range n {
				op = Op{Kind: OpPut, Key: fe.Key(rng.Int63n(fe.Keys)), Value: value, Class: sched.LatencySensitive}
				if i%2 == 1 {
					op.Kind, op.Value = OpGet, nil
				}
				settled.Reset()
				fe.Submit(op, done)
				settled.Await(p)
				if serr != nil {
					t.Fatalf("op %d: %v", i, serr)
				}
			}
		}
		checkpoints := func() (least, all int64) {
			least = -1
			for _, sh := range f.Shards() {
				c := sh.System().Store.Checkpoints
				if least < 0 || c < least {
					least = c
				}
				all += c
			}
			return least, all
		}
		// Warm the memtables' arrays and arenas, the pools and the
		// shards' logs.
		for range 4 {
			serveOps()
		}
		least, all := checkpoints()
		got := mallocs(serveOps)
		leastAfter, allAfter := checkpoints()
		cps := allAfter - all
		t.Logf("%d puts and gets: %d allocations, %d checkpoints (at least %d per shard)", n, got, cps, leastAfter-least)
		if leastAfter-least < 4 {
			t.Fatalf("%d checkpoints on the least-checkpointed shard, want at least 4", leastAfter-least)
		}
		if got > uint64(4*cps) {
			t.Errorf("%d puts and gets allocated %d times across %d checkpoints, want at most 4 per checkpoint and none per op", n, got, cps)
		}
	})
}
