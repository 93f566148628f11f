package kvstore

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// applyBatch hands ops to the log writer and waits until they are
// durable and published.
func applyBatch(p *sim.Proc, st *Store, ops []BatchOp) error {
	return p.Await(func(done func(error)) error { return st.ApplyBatchAsync(p, ops, done) })
}

func TestApplyBatchRoundTrip(t *testing.T) {
	withSystem(t, false, func(p *sim.Proc, sys *System) {
		ops := make([]BatchOp, 16)
		for i := range ops {
			ops[i] = BatchOp{Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte(fmt.Sprintf("v%02d", i))}
		}
		if err := applyBatch(p, sys.Store, ops); err != nil {
			t.Fatalf("apply: %v", err)
		}
		for i := range ops {
			got, err := sys.Store.Get(p, ops[i].Key)
			if err != nil || string(got) != string(ops[i].Value) {
				t.Fatalf("key %d: %q %v", i, got, err)
			}
		}
		if sys.Store.BatchCommits != 1 || sys.Store.BatchOps != 16 {
			t.Fatalf("batch stats %d/%d, want 1/16", sys.Store.BatchCommits, sys.Store.BatchOps)
		}
		if sys.Store.Commits != 1 {
			t.Fatalf("commits %d: a batch must be one group commit, not one per op", sys.Store.Commits)
		}
		// Deletes and later-op-wins duplicates ride the same path.
		if err := applyBatch(p, sys.Store, []BatchOp{
			{Key: []byte("k00"), Delete: true},
			{Key: []byte("k01"), Value: []byte("first")},
			{Key: []byte("k01"), Value: []byte("last")},
		}); err != nil {
			t.Fatalf("apply 2: %v", err)
		}
		if _, err := sys.Store.Get(p, []byte("k00")); !errors.Is(err, ErrNotFound) {
			t.Fatalf("k00 survived batched delete: %v", err)
		}
		if got, _ := sys.Store.Get(p, []byte("k01")); string(got) != "last" {
			t.Fatalf("k01 = %q, want later op to win", got)
		}
	})
}

// TestApplyBatchAtomicAcrossCrash checks the group-commit durability
// contract: a synced batch survives a crash whole — all N keys
// recovered, none partially.
func TestApplyBatchAtomicAcrossCrash(t *testing.T) {
	withSystem(t, false, func(p *sim.Proc, sys *System) {
		ops := make([]BatchOp, 12)
		for i := range ops {
			ops[i] = BatchOp{Key: []byte(fmt.Sprintf("b%02d", i)), Value: []byte(fmt.Sprintf("x%02d", i))}
		}
		if err := applyBatch(p, sys.Store, ops); err != nil {
			t.Fatalf("apply: %v", err)
		}
		fresh, _, err := sys.Crash(p)
		if err != nil {
			t.Fatalf("crash: %v", err)
		}
		for i := range ops {
			got, err := fresh.Store.Get(p, ops[i].Key)
			if err != nil || string(got) != string(ops[i].Value) {
				t.Fatalf("after crash, key %d: %q %v", i, got, err)
			}
		}
	})
}

// TestApplyBatchLogFullRetries checks that a batch hitting a full WAL
// rides the same checkpoint-and-retry path a plain commit does instead
// of failing upward.
func TestApplyBatchLogFullRetries(t *testing.T) {
	withSystem(t, false, func(p *sim.Proc, sys *System) {
		big := make([]byte, 512)
		for round := 0; round < 64; round++ {
			ops := make([]BatchOp, 8)
			for i := range ops {
				ops[i] = BatchOp{Key: []byte(fmt.Sprintf("r%02d-%d", round, i)), Value: big}
			}
			if err := applyBatch(p, sys.Store, ops); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if sys.Store.Checkpoints == 0 {
			t.Fatal("workload never checkpointed; log-full path untested")
		}
		got, err := sys.Store.Get(p, []byte("r63-7"))
		if err != nil || len(got) != len(big) {
			t.Fatalf("last batch key: %d bytes, %v", len(got), err)
		}
	})
}
