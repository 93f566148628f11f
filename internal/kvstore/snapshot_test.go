package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestSnapshotPinsStateAcrossCheckpoints: a snapshot taken mid-life
// must keep reporting the state at capture while the live store churns
// through overwrites, checkpoints, page frees and (progressive
// assembly) trims — the property live migration's copy phase stands on.
func TestSnapshotPinsStateAcrossCheckpoints(t *testing.T) {
	for _, prog := range []bool{false, true} {
		prog := prog
		t.Run(fmt.Sprintf("progressive=%v", prog), func(t *testing.T) {
			withSystem(t, prog, func(p *sim.Proc, sys *System) {
				st := sys.Store
				const n = 60
				key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
				write := func(salt string) {
					for i := 0; i < n; i += 8 {
						tx := st.Begin()
						for j := i; j < i+8 && j < n; j++ {
							tx.Put(key(j), []byte(salt+string(key(j))))
						}
						if err := tx.Commit(p); err != nil {
							t.Fatalf("commit: %v", err)
						}
					}
					if err := st.Checkpoint(p); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
				}
				write("old-")
				sn, err := st.Snapshot()
				if err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				// Churn the live store hard enough that, without the
				// pin, the snapshot tree's pages would have been
				// recycled (and trimmed, progressively) several times over.
				for r := 0; r < 4; r++ {
					write(fmt.Sprintf("new%d-", r))
				}
				seen := 0
				if err := sn.Scan(p, func(k, v []byte) bool {
					seen++
					if want := append([]byte("old-"), k...); !bytes.Equal(v, want) {
						t.Errorf("snapshot %s = %q, want %q", k, v, want)
						return false
					}
					return true
				}); err != nil {
					t.Fatalf("snapshot scan: %v", err)
				}
				if seen != n {
					t.Fatalf("snapshot saw %d keys, want %d", seen, n)
				}
				// The live store meanwhile serves the newest values.
				got, err := st.Get(p, key(0))
				if err != nil || !bytes.HasPrefix(got, []byte("new3-")) {
					t.Fatalf("live get = %q, %v; want new3- prefix", got, err)
				}
				// Release (idempotently): the last pin disposes of limbo, and
				// the writes go on.
				sn.Release()
				sn.Release()
				if st.pins != 0 || len(st.limbo) != 0 {
					t.Fatalf("%d pins held, %d pages in limbo after release", st.pins, len(st.limbo))
				}
				write("final-")
			})
		})
	}
}

// TestCopyIntoClonesLiveStore: CopyInto must reproduce the source's
// snapshot exactly in the destination, while writes landing after the
// snapshot stay out of the copy.
func TestCopyIntoClonesLiveStore(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		src, err := BuildConservative(p, eng, buildFlash(t, eng), 64, 2, Config{CheckpointBytes: 8 << 10})
		if err != nil {
			t.Errorf("build src: %v", err)
			return
		}
		dst, err := BuildConservative(p, eng, buildFlash(t, eng), 64, 2, Config{CheckpointBytes: 8 << 10})
		if err != nil {
			t.Errorf("build dst: %v", err)
			return
		}
		const n = 40
		key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
		tx := src.Store.Begin()
		for i := 0; i < n; i++ {
			tx.Put(key(i), []byte(fmt.Sprintf("v%d", i)))
		}
		if err := tx.Commit(p); err != nil {
			t.Errorf("commit: %v", err)
			return
		}
		copied, err := src.Store.CopyInto(p, dst.Store, 8)
		if err != nil {
			t.Errorf("copy: %v", err)
			return
		}
		if copied != n {
			t.Errorf("copied %d keys, want %d", copied, n)
		}
		for i := 0; i < n; i++ {
			got, err := dst.Store.Get(p, key(i))
			if err != nil || !bytes.Equal(got, []byte(fmt.Sprintf("v%d", i))) {
				t.Errorf("dst %s = %q, %v", key(i), got, err)
			}
		}
	})
	eng.Run()
}
