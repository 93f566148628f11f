package place

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
)

// TestQuorumWritesRideBatchCommit: quorum writes drain through the
// replicas' batched workers and multi-op group commits, and the
// replication contract is unchanged — every acked write is readable
// from both replica stores, concurrent writes included.
func TestQuorumWritesRideBatchCommit(t *testing.T) {
	withPlacement(t, replicatedConfig(2), func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend) {
		// Concurrent puts so whole runs land in one admission ring and
		// drain as one batch on each replica.
		const n = 48
		wg := sim.NewWaitGroup(p.Engine())
		wg.Add(n)
		acked := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			key := int64(i % 64)
			fe.Submit(serve.Op{Kind: serve.OpPut, Key: fe.Key(key), Value: []byte(fmt.Sprintf("v%d", key))},
				func(err error) {
					acked[i] = err == nil
					wg.Done()
				})
		}
		wg.Wait(p)
		for i := 0; i < n; i++ {
			if !acked[i] {
				continue // unacked writes carry no durability promise
			}
			key := fe.Key(int64(i % 64))
			want := []byte(fmt.Sprintf("v%d", i%64))
			systems := fe.TargetFor(key).Systems()
			if len(systems) != 2 {
				t.Fatalf("write %d target has %d systems, want 2", i, len(systems))
			}
			for ri, sys := range systems {
				got, err := sys.Store.Get(p, key)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("acked write %d lost on replica %d: %q, %v", i, ri, got, err)
				}
			}
		}
		// The batched engine actually engaged: at least one replica
		// store committed a multi-op batch.
		batched := int64(0)
		for _, sh := range f.Shards() {
			batched += sh.System().Store.BatchCommits
		}
		if batched == 0 {
			t.Fatal("no batch commits on any replica: quorum writes never rode a group commit")
		}
		if f.Errors != 0 {
			t.Errorf("engine errors: %d", f.Errors)
		}
	})
}
