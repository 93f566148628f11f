package kvstore

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/sim"
)

// loadStore commits n keys ("key%06d" → 64-byte values) and checkpoints
// them into the tree, leaving the memtable empty.
func loadStore(tb testing.TB, p *sim.Proc, st *Store, n int) {
	tb.Helper()
	for i := 0; i < n; i += 50 {
		tx := st.Begin()
		for j := i; j < i+50 && j < n; j++ {
			tx.Put(scanKey(j), bytes.Repeat([]byte{byte(j)}, 64))
		}
		if err := tx.Commit(p); err != nil {
			tb.Fatalf("load: %v", err)
		}
	}
	if err := st.Checkpoint(p); err != nil {
		tb.Fatalf("checkpoint: %v", err)
	}
}

func scanKey(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }

// withStore runs fn in a proc over a conservative store holding n
// checkpointed keys behind a cache of the given size.
func withStore(tb testing.TB, frames, n int, fn func(p *sim.Proc, st *Store)) {
	tb.Helper()
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		sys, err := BuildConservative(p, eng, buildFlash(tb, eng), 64, 2, Config{CacheFrames: frames, CheckpointBytes: 1 << 30})
		if err != nil {
			tb.Fatalf("build: %v", err)
		}
		loadStore(tb, p, sys.Store, n)
		fn(p, sys.Store)
	})
	eng.Run()
}

// TestScanFromMatchesModel drives ScanFrom against a sorted-map model
// over random puts, overwrites and deletes spread across the three
// layers: checkpoints move rows into the tree, and a checkpoint left
// running on another proc holds a frozen memtable under the scan. Every
// probe checks a start key that is present, absent, before the first
// and past the last key, and stops early at every row. Each seed
// crashes and reopens half way.
func TestScanFromMatchesModel(t *testing.T) {
	sawFrozen := 0
	for seed := uint64(1); seed <= 20; seed++ {
		eng := sim.NewEngine()
		eng.Go(func(p *sim.Proc) {
			sys, err := BuildConservative(p, eng, buildFlash(t, eng), 64, 2, Config{CacheFrames: 3, CheckpointBytes: 2 << 10})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rng := sim.NewRNG(seed)
			model := map[string]string{}
			probe := func(st *Store) {
				keys := make([]string, 0, len(model))
				for k := range model {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				starts := []string{"", "k", "k050", "k0505", "k119", "k1190", "z", fmt.Sprintf("k%03d", rng.Intn(120))}
				for _, start := range starts {
					want := keys[sort.SearchStrings(keys, start):]
					for limit := 1; limit <= len(want)+1; limit++ {
						n := 0
						err := st.ScanFrom(p, []byte(start), func(k, v []byte) bool {
							if n >= len(want) || string(k) != want[n] || string(v) != model[want[n]] {
								t.Fatalf("seed %d start %q row %d = %q:%q, want %d rows from the model", seed, start, n, k, v, len(want))
							}
							n++
							return n < limit
						})
						if err != nil {
							t.Fatalf("seed %d scan: %v", seed, err)
						}
						if wantN := min(limit, len(want)); n != wantN {
							t.Fatalf("seed %d start %q limit %d: %d rows, want %d", seed, start, limit, n, wantN)
						}
						if st.frozen != nil {
							sawFrozen++
						}
					}
				}
			}
			const ops = 400
			for i := 0; i < ops; i++ {
				st := sys.Store
				k := fmt.Sprintf("k%03d", rng.Intn(120))
				tx := st.Begin()
				if rng.Bool(0.25) {
					tx.Delete([]byte(k))
					delete(model, k)
				} else {
					v := fmt.Sprintf("v%d-%d", seed, i)
					tx.Put([]byte(k), []byte(v))
					model[k] = v
				}
				if err := tx.Commit(p); err != nil {
					t.Fatalf("seed %d commit: %v", seed, err)
				}
				if i%57 == 56 {
					// Scan while a checkpoint drains the frozen memtable.
					done := sim.NewCond(eng)
					eng.Go(func(q *sim.Proc) {
						if err := st.Checkpoint(q); err != nil {
							t.Errorf("seed %d checkpoint: %v", seed, err)
						}
						done.Fire()
					})
					p.Sleep(sim.Microsecond)
					probe(st)
					done.Await(p)
				}
				if i%57 == 28 {
					probe(st)
				}
				if i == ops/2 {
					if sys, _, err = sys.Crash(p); err != nil {
						t.Fatalf("seed %d crash: %v", seed, err)
					}
					probe(sys.Store)
				}
			}
			probe(sys.Store)
			if sys.Store.pins != 0 {
				t.Fatalf("seed %d: %d pins left after the scans returned", seed, sys.Store.pins)
			}
		})
		eng.Run()
	}
	if sawFrozen == 0 {
		t.Fatal("no scan ever ran over a frozen memtable")
	}
}

// TestScanFromPageBudget: a 16-row range read on a 1000-key, height-2
// store looks up the root and the one or two leaves its rows live in,
// wherever it starts — not every page of the shard.
func TestScanFromPageBudget(t *testing.T) {
	withStore(t, 8, 1000, func(p *sim.Proc, st *Store) {
		if st.TreeHeight() != 2 {
			t.Fatalf("tree height = %d, want 2", st.TreeHeight())
		}
		for _, from := range []int{0, 333, 617, 990} {
			before := st.cache.Hits + st.cache.Misses
			n := 0
			if err := st.ScanFrom(p, scanKey(from), func(k, _ []byte) bool {
				if !bytes.Equal(k, scanKey(from+n)) {
					t.Fatalf("scan from %d row %d = %q", from, n, k)
				}
				n++
				return n < 16
			}); err != nil {
				t.Fatalf("scan: %v", err)
			}
			if want := min(16, 1000-from); n != want {
				t.Fatalf("scan from %d returned %d rows, want %d", from, n, want)
			}
			if lookups := st.cache.Hits + st.cache.Misses - before; lookups > 4 {
				t.Fatalf("16-row scan from %d did %d page lookups, want <= 4", from, lookups)
			}
		}
	})
}

// TestScanAcrossCheckpointsReadsNoRecycledPage: a full scan through a
// one-frame cache is suspended in a device read at every page (and by
// a slow consumer at every row) while a second proc overwrites keys in
// leaves the scan has not reached yet and forces a checkpoint after
// each: the first frees and trims a leaf of the tree the scan started
// on, the next reallocates that page for a different leaf. A scan that
// kept following the page IDs it started with would read a trimmed
// page or another leaf's rows; this one must return every key once, in
// order, each with a value that key actually held.
func TestScanAcrossCheckpointsReadsNoRecycledPage(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		sys, err := BuildProgressive(p, eng, buildFlash(t, eng), buildMemBus(t, eng), 1<<20, 2,
			Config{CacheFrames: 1, CheckpointBytes: 1 << 30})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		st := sys.Store
		const n = 6000
		held := make([]map[string]bool, n) // every value key i ever had
		for i := range held {
			held[i] = map[string]bool{}
		}
		// write commits keys [lo, lo+40), then checkpoints when asked.
		write := func(q *sim.Proc, round, lo int, checkpoint bool) {
			tx := st.Begin()
			for j := lo; j < lo+40; j++ {
				v := fmt.Sprintf("round%d-%06d-%s", round, j, bytes.Repeat([]byte{'x'}, 40))
				held[j][v] = true
				tx.Put(scanKey(j), []byte(v))
			}
			if err := tx.Commit(q); err != nil {
				t.Errorf("commit: %v", err)
			}
			if !checkpoint {
				return
			}
			if err := st.Checkpoint(q); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
		}
		for lo := 0; lo < n; lo += 40 {
			write(p, 0, lo, lo+40 == n)
		}
		start := st.Checkpoints
		writer := sim.NewCond(eng)
		eng.Go(func(q *sim.Proc) { // runs whenever this proc is suspended
			for round := 1; round <= 3; round++ {
				write(q, round, n-80*round, true)
			}
			writer.Fire()
		})
		// A checkpoint reads every leaf for its separator keys, so it takes
		// as long as walking the tree does: give the first one a head start
		// so that it completes while the scan is part way through.
		p.Sleep(8 * sim.Millisecond)
		rows := 0
		err = st.ScanFrom(p, nil, func(k, v []byte) bool {
			if rows >= n || !bytes.Equal(k, scanKey(rows)) {
				t.Fatalf("row %d = %q, want %q", rows, k, scanKey(rows))
			}
			if !held[rows][string(v)] {
				t.Fatalf("%s = %q, a value it never held", k, v)
			}
			if st.Checkpoints > start && len(st.limbo) == 0 {
				t.Fatalf("row %d: a checkpoint under the live scan left nothing in limbo", rows)
			}
			rows++
			p.Sleep(10 * sim.Microsecond)
			return true
		})
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		if rows != n {
			t.Fatalf("scan returned %d rows, want %d", rows, n)
		}
		if done := st.Checkpoints - start; done < 2 {
			t.Fatalf("only %d checkpoints completed under the scan, want >= 2", done)
		}
		if st.pins != 0 || len(st.limbo) != 0 {
			t.Fatalf("scan returned holding %d pins, %d pages in limbo", st.pins, len(st.limbo))
		}
		writer.Await(p)
	})
	eng.Run()
}

func BenchmarkStoreGet(b *testing.B) {
	withStore(b, 8, 1000, func(p *sim.Proc, st *Store) {
		rng := sim.NewRNG(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.Get(p, scanKey(rng.Intn(1000))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkStoreScan16(b *testing.B) {
	withStore(b, 8, 1000, func(p *sim.Proc, st *Store) {
		rng := sim.NewRNG(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := st.ScanFrom(p, scanKey(rng.Intn(1000)), func(_, _ []byte) bool {
				n++
				return n < 16
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
