package place

import (
	"runtime"
	"testing"

	"repro/internal/serve"
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

// TestKVPathSteadyStateAllocs: a quorum write allocates nothing beyond
// its replicas' shard paths — the same puts submitted to each replica
// shard directly cost as much, give or take where each replica store's
// byte chunks fill — because its fan-out record is pooled with its
// settle bound once (kvstore's test of the same name covers the store
// below).
func TestKVPathSteadyStateAllocs(t *testing.T) {
	cfg := replicatedConfig(1)
	cfg.Progressive = true // a landing is a PCM persist, which allocates nothing
	cfg.Store.CheckpointBytes = 1 << 30
	withPlacement(t, cfg, func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend) {
		g := pl.groups[0]
		value := make([]byte, 32)
		settled := sim.NewCond(p.Engine())
		var left int
		var serr error
		settle := func(err error) {
			if err != nil {
				serr = err
			}
			if left--; left == 0 {
				settled.Fire()
			}
		}
		// writes puts each of the frontend's keys once, one at a time,
		// through submit.
		writes := func(submit func(op serve.Op)) func() {
			return func() {
				for i := int64(0); i < fe.Keys; i++ {
					settled.Reset()
					submit(serve.Op{Kind: serve.OpPut, Key: fe.Key(i), Value: value})
					settled.Await(p)
					if serr != nil {
						t.Fatalf("write: %v", serr)
					}
				}
			}
		}
		quorum := writes(func(op serve.Op) {
			left = 1
			g.Submit(op, settle)
		})
		bare := writes(func(op serve.Op) {
			left = len(g.Replicas())
			for _, sh := range g.Replicas() {
				sh.Submit(op, settle)
			}
		})
		// Warm the stores and the pools, and wrap each replica's PCM log
		// ring so every line of it has been touched. The checkpoints keep
		// the log from filling; none runs while measuring.
		for range 16 {
			quorum()
			bare()
			for _, sh := range g.Replicas() {
				if err := sh.System().Store.Checkpoint(p); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
		}
		checkpoints := g.Replicas()[0].System().Store.Checkpoints
		q, b := mallocs(quorum), mallocs(bare)
		if n := g.Replicas()[0].System().Store.Checkpoints - checkpoints; n != 0 {
			t.Fatalf("%d checkpoints while measuring", n)
		}
		t.Logf("%d quorum writes: %d allocations; their bare replica ops: %d", fe.Keys, q, b)
		if chunks := uint64(len(g.Replicas())); q > b+chunks {
			t.Errorf("%d quorum writes allocated %d times, their bare replica ops %d (+%d chunks)", fe.Keys, q, b, chunks)
		}
	})
}
