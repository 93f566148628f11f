package serve

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// TestFrontendRoutingSpreadsKeys: the hash router must give every
// shard a meaningful slice of the key space at 1, 4 and 16 shards —
// no empty shard, no shard further than 2x from the fair share.
func TestFrontendRoutingSpreadsKeys(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		shards := shards
		withFabric(t, baseConfig(shards), func(p *sim.Proc, f *Fabric) {
			const keys = 4096
			fe := NewFrontend(f, keys, 32)
			counts := make(map[*Shard]int)
			for i := int64(0); i < keys; i++ {
				tgt := fe.TargetFor(fe.Key(i))
				sh, ok := tgt.(*Shard)
				if !ok {
					t.Fatalf("default router target is %T, want *Shard", tgt)
				}
				if again := fe.TargetFor(fe.Key(i)); again != tgt {
					t.Fatalf("key %d routed to two targets", i)
				}
				if sh != shardFor(fe, fe.Key(i)) {
					t.Fatalf("key %d: TargetFor and shardFor disagree", i)
				}
				counts[sh]++
			}
			if len(counts) != shards {
				t.Fatalf("%d shards reached, want %d", len(counts), shards)
			}
			fair := keys / shards
			for _, sh := range f.Shards() {
				got := counts[sh]
				if got < fair/2 || got > 2*fair {
					t.Errorf("%d shards: %s got %d keys, fair share %d (outside [1/2, 2]x)",
						shards, sh.Name(), got, fair)
				}
			}
		})
	}
}

// TestFrontendRoutingStableAcrossReopen: a key's shard assignment must
// survive a whole-fabric crash and reopen — the shards' stores are
// rebuilt, but the routing table (and so the key→region mapping the
// preloaded data depends on) cannot move.
func TestFrontendRoutingStableAcrossReopen(t *testing.T) {
	cfg := baseConfig(4)
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		const keys = 256
		fe := NewFrontend(f, keys, 32)
		if err := fe.Preload(p); err != nil {
			t.Fatalf("preload: %v", err)
		}
		before := make([]int, keys)
		for i := int64(0); i < keys; i++ {
			before[i] = shardFor(fe, fe.Key(i)).idx
		}
		if err := f.Crash(p); err != nil {
			t.Fatalf("crash: %v", err)
		}
		for i := int64(0); i < keys; i++ {
			sh := shardFor(fe, fe.Key(i))
			if sh.idx != before[i] {
				t.Fatalf("key %d moved from shard %d to %d across reopen", i, before[i], sh.idx)
			}
			// And the reopened shard really holds the key it is routed
			// for — assignment stability is what makes recovery find the
			// data where the router sends the reads.
			if _, err := sh.System().Store.Get(p, fe.Key(i)); err != nil {
				t.Fatalf("key %d missing from its shard after reopen: %v", i, err)
			}
		}
	})
}

// TestFrontendKeyMatchesFormat: keys are exactly fmt's "user%08d" — at
// the zero pad, the last index, the last eight-digit index, past eight
// digits and below zero — from a frontend's table and from a zero
// Frontend. A key in range is the table's, capped so an append cannot
// reach its neighbour, and costs nothing; any other costs one
// allocation.
func TestFrontendKeyMatchesFormat(t *testing.T) {
	const keys = 1000
	fe := NewFrontend(nil, keys, 0)
	for _, f := range []*Frontend{fe, {}} {
		for _, i := range []int64{0, 7, keys - 1, keys, 99_999_999, 100_000_000, -5, math.MaxInt64, math.MinInt64} {
			if got, want := string(f.Key(i)), fmt.Sprintf("user%08d", i); got != want {
				t.Errorf("Key(%d) = %q, want %q", i, got, want)
			}
		}
	}
	if k := append(fe.Key(5), 'x'); string(fe.Key(6)) != "user00000006" || string(k) != "user00000005x" {
		t.Errorf("appending to Key(5) gave %q and left Key(6) = %q", k, fe.Key(6))
	}
	for _, c := range []struct {
		name   string
		f      *Frontend
		i      int64
		allocs float64
	}{
		{"in range", fe, 123, 0},
		{"past the key space", fe, keys, 1},
		{"negative", fe, -1, 1},
		{"zero Frontend", &Frontend{}, 123, 1},
	} {
		if got := testing.AllocsPerRun(100, func() { c.f.Key(c.i) }); got != c.allocs {
			t.Errorf("Key(%d), %s: %.0f allocations, want %.0f", c.i, c.name, got, c.allocs)
		}
	}
}

// shardFor routes a key to its physical shard on the default router.
func shardFor(f *Frontend, key []byte) *Shard {
	return f.fab.shards[routeIndex(key, len(f.fab.shards))]
}

// scan reads up to limit rows of key index i's shard, starting at that
// key, through admission.
func scan(p *sim.Proc, f *Frontend, i int64, limit int) error {
	return f.do(p, Op{Kind: OpScan, Key: f.Key(i), ScanLimit: limit, Class: sched.Throughput})
}
