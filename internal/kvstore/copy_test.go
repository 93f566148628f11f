package kvstore

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/btree"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// agedStore runs fn in a proc over a conservative store on a small
// device whose 16-page write buffer keeps almost nothing resident, after
// enough rewrites of every key that the device is collecting garbage:
// the tree's pages are read back from flash, not from controller RAM.
func agedStore(tb testing.TB, frames int, fn func(p *sim.Proc, st *Store, dev *ssd.Device)) {
	tb.Helper()
	eng := sim.NewEngine()
	d, err := ssd.Build(eng, ssd.Enterprise2012, ssd.Options{
		Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 16, PagesPerBlock: 16, BufferPages: 16,
	})
	if err != nil {
		tb.Fatal(err)
	}
	dev := d.(*ssd.Device)
	eng.Go(func(p *sim.Proc) {
		sys, err := BuildConservative(p, eng, dev, 64, 2, Config{CacheFrames: frames, CheckpointBytes: 1 << 30})
		if err != nil {
			tb.Fatalf("build: %v", err)
		}
		for round := 0; dev.FTL().Stats().GCErases == 0; round++ {
			if round == 200 {
				tb.Fatal("the device never collected garbage")
			}
			loadStore(tb, p, sys.Store, 1000)
		}
		fn(p, sys.Store, dev)
	})
	eng.Run()
}

// allocated reports the bytes fn allocates on the heap, and how many of
// its allocations fall in the allocator's size class of exactly ps bytes
// (page buffers).
func allocated(tb testing.TB, ps int, fn func()) (total, pageBufs uint64) {
	tb.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	for i, c := range after.BySize {
		if int(c.Size) == ps {
			return after.TotalAlloc - before.TotalAlloc, c.Mallocs - before.BySize[i].Mallocs
		}
	}
	tb.Fatalf("no allocator size class of %d bytes", ps)
	return 0, 0
}

// A page is copied only where its owner changes. A Get that misses the
// cache takes the page the device read, which is the flash page's own
// buffer: no copy on the chip read, none into the cache, so it allocates
// less than one page (it used to allocate one per page read). A
// checkpoint's page is encoded once by the tree, cached as encoded, and
// cloned once by the device's write buffer, which is what the chip keeps:
// at most two page buffers per page written (it used to be four: the
// cache and the chip program each copied it too).
func TestPageBytesPerOp(t *testing.T) {
	agedStore(t, 2, func(p *sim.Proc, st *Store, dev *ssd.Device) {
		ps := dev.PageSize()
		if st.TreeHeight() != 2 {
			t.Fatalf("tree height = %d, want 2", st.TreeHeight())
		}

		// Keys 37 apart land in different leaves, so with two frames every
		// Get misses at least its leaf.
		const gets = 200
		misses := st.cache.Misses
		got, _ := allocated(t, ps, func() {
			for i := 0; i < gets; i++ {
				if _, err := st.Get(p, scanKey(i*37%1000)); err != nil {
					t.Fatalf("get: %v", err)
				}
			}
		})
		if m := st.cache.Misses - misses; m < gets {
			t.Fatalf("%d cache misses in %d gets, want every get to miss", m, gets)
		}
		t.Logf("cache-miss Get: %d bytes", got/gets)
		if perGet := got / gets; perGet >= uint64(ps) {
			t.Errorf("a cache-miss Get allocates %d bytes, want under one %d-byte page", perGet, ps)
		}

		// One checkpoint rewriting every leaf.
		tx := st.Begin()
		for i := 0; i < 1000; i += 10 {
			tx.Put(scanKey(i), bytes.Repeat([]byte{0xC4}, 64))
		}
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
		writes := dev.FTL().Stats().HostWrites
		_, bufs := allocated(t, ps, func() {
			if err := st.Checkpoint(p); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		})
		pages := uint64(dev.FTL().Stats().HostWrites - writes)
		if pages < 20 {
			t.Fatalf("the checkpoint wrote %d pages, want every leaf rewritten", pages)
		}
		t.Logf("checkpoint: %d page buffers for %d pages written", bufs, pages)
		if perPage := float64(bufs) / float64(pages); perPage > 2 {
			t.Errorf("a checkpoint allocates %.2f page buffers per page it writes (%d buffers, %d pages), want at most 2", perPage, bufs, pages)
		}
	})
}

// BenchmarkStorePutCheckpoint commits one put per op into an 8-frame
// store whose 4 KiB memtable fills every few dozen puts, so checkpoints
// cycle through the measurement: the bytes per op are the write path's,
// page encodes and copies included.
func BenchmarkStorePutCheckpoint(b *testing.B) {
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		sys, err := BuildConservative(p, eng, buildFlash(b, eng), 64, 2, Config{CacheFrames: 8, CheckpointBytes: 4 << 10})
		if err != nil {
			b.Fatalf("build: %v", err)
		}
		st := sys.Store
		loadStore(b, p, st, 1000)
		rng := sim.NewRNG(1)
		value := bytes.Repeat([]byte{0x5A}, 64)
		start := st.Checkpoints
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := st.Begin()
			tx.Put(scanKey(rng.Intn(1000)), value)
			if err := tx.Commit(p); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if b.N >= 100 && st.Checkpoints == start {
			b.Fatal("no checkpoint ran")
		}
	})
	eng.Run()
}

// BenchmarkApplyBatchAsync hands one put per op to a progressive store
// and waits for its landing, checkpointing when the memtable fills, the
// way a serving worker drives it: allocations per op are the write
// path's above the block interface, chunks and checkpoints amortized.
func BenchmarkApplyBatchAsync(b *testing.B) {
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		sys, err := BuildProgressive(p, eng, buildFlash(b, eng), buildMemBus(b, eng), 256<<10, 2, Config{CacheFrames: 8, CheckpointBytes: 64 << 10})
		if err != nil {
			b.Fatalf("build: %v", err)
		}
		st := sys.Store
		loadStore(b, p, st, 1000)
		keys := make([][]byte, 1000)
		for i := range keys {
			keys[i] = scanKey(i)
		}
		ops := []BatchOp{{Value: bytes.Repeat([]byte{0x5A}, 64)}}
		landed := sim.NewCond(eng)
		var lerr error
		land := func(err error) { lerr = err; landed.Fire() }
		rng := sim.NewRNG(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops[0].Key = keys[rng.Intn(len(keys))]
			landed.Reset()
			if err := st.ApplyBatchAsync(p, ops, land); err != nil {
				b.Fatal(err)
			}
			landed.Await(p)
			if lerr != nil {
				b.Fatal(lerr)
			}
			if err := st.CheckpointIfFull(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	eng.Run()
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestKVPathSteadyStateAllocs: on a warmed store, the write path
// allocates only where a buffer changes owner (place's test of the same
// name covers the quorum fan-out above it).
//   - A put handed off and landed costs at most 1/32 of an allocation:
//     its bytes are cut from the store's chunks, its commit record is
//     pooled, and its landing is a PCM persist.
//   - A one-key checkpoint into a two-level tree costs each page it
//     writes its two page buffers — the tree's encoding and the device's
//     hand-off copy — plus at most 4: the merge runs in place on the tree
//     writer's scratch, the memtable and free lists keep their arrays.
func TestKVPathSteadyStateAllocs(t *testing.T) {
	value := bytes.Repeat([]byte{0x5A}, 64)
	t.Run("handoff", func(t *testing.T) {
		eng := sim.NewEngine()
		eng.Go(func(p *sim.Proc) {
			// A 256 KiB log holds the measured puts, and the warm-up's wrap
			// has touched every PCM line of it.
			sys, err := BuildProgressive(p, eng, buildFlash(t, eng), buildMemBus(t, eng), 256<<10, 2, Config{CheckpointBytes: 1 << 30})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			st := sys.Store
			const n = 1000
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = scanKey(i)
			}
			landed := sim.NewCond(eng)
			var lerr error
			land := func(err error) { lerr = err; landed.Fire() }
			ops := make([]BatchOp, 1)
			putAll := func() {
				for _, k := range keys {
					ops[0] = BatchOp{Key: k, Value: value}
					landed.Reset()
					if err := st.ApplyBatchAsync(p, ops, land); err != nil {
						t.Fatalf("hand-off: %v", err)
					}
					landed.Await(p)
					if lerr != nil {
						t.Fatalf("landing: %v", lerr)
					}
				}
			}
			// Warm the memtable's array, the log and the pools.
			for range 2 {
				putAll()
				if err := st.Checkpoint(p); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
			checkpoints := st.Checkpoints
			got := mallocs(putAll)
			if st.Checkpoints != checkpoints {
				t.Fatalf("the log filled: %d checkpoints among the measured puts", st.Checkpoints-checkpoints)
			}
			t.Logf("%d single-put hand-offs and landings: %d allocations", n, got)
			if got*32 > n {
				t.Errorf("%d single-put hand-offs and landings allocated %d times, want at most %d", n, got, n/32)
			}
		})
		eng.Run()
	})
	t.Run("checkpoint", func(t *testing.T) {
		agedStore(t, 256, func(p *sim.Proc, st *Store, dev *ssd.Device) {
			if st.TreeHeight() < 2 {
				t.Fatalf("tree height = %d, want at least 2", st.TreeHeight())
			}
			for i := 0; i < 2; i++ { // warm the writer's scratch and free lists
				if err := st.ApplyBatch(p, []BatchOp{{Key: scanKey(500 + i), Value: value}}); err != nil {
					t.Fatalf("put: %v", err)
				}
				if err := st.Checkpoint(p); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
			if err := st.ApplyBatch(p, []BatchOp{{Key: scanKey(617), Value: value}}); err != nil {
				t.Fatalf("put: %v", err)
			}
			writes := dev.FTL().Stats().HostWrites
			got := mallocs(func() {
				if err := st.Checkpoint(p); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			})
			pages := uint64(dev.FTL().Stats().HostWrites - writes)
			t.Logf("one-key checkpoint: %d allocations for %d pages written", got, pages)
			if got > 2*pages+4 {
				t.Errorf("a one-key checkpoint allocated %d times for %d pages written, want at most %d", got, pages, 2*pages+4)
			}
		})
	})
}

// TestHeldRowsSurviveLaterWrites: bytes a reader took from the store — a
// Get result, a snapshot's rows (the snapshot taken while a checkpoint
// drains the frozen memtable), the rows a suspended ScanFrom already
// returned — never change, while later puts fill more than three chunks
// and two checkpoints recycle the memtable's array: a chunk is never
// reused, and a pinned frozen memtable is never recycled.
func TestHeldRowsSurviveLaterWrites(t *testing.T) {
	withStore(t, 4, 200, func(p *sim.Proc, st *Store) {
		eng := p.Engine()
		put := func(round byte) {
			for i := 0; i < 150; i++ {
				if err := st.ApplyBatch(p, []BatchOp{{Key: scanKey(i), Value: bytes.Repeat([]byte{round}, 64)}}); err != nil {
					t.Fatalf("put: %v", err)
				}
			}
		}
		type row struct{ k, v, kc, vc []byte } // as returned, and a copy
		var held []row
		keep := func(k, v []byte) { held = append(held, row{k, v, bytes.Clone(k), bytes.Clone(v)}) }
		put(1)
		got, err := st.Get(p, scanKey(7))
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		keep(scanKey(7), got)

		checkpointed := sim.NewCond(eng)
		eng.Go(func(q *sim.Proc) {
			if err := st.Checkpoint(q); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
			checkpointed.Fire()
		})
		p.Sleep(sim.Microsecond)
		if st.frozen == nil {
			t.Fatal("no checkpoint is draining a frozen memtable")
		}
		sn, err := st.Snapshot()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		var first []row
		if err := sn.Scan(p, func(k, v []byte) bool {
			keep(k, v)
			first = append(first, held[len(held)-1])
			return true
		}); err != nil {
			t.Fatalf("snapshot scan: %v", err)
		}

		paused, resume, scanned := sim.NewCond(eng), sim.NewCond(eng), sim.NewCond(eng)
		eng.Go(func(q *sim.Proc) {
			n := 0
			if err := st.ScanFrom(q, nil, func(k, v []byte) bool {
				keep(k, v)
				if n++; n == 50 {
					paused.Fire()
					resume.Await(q)
				}
				return true
			}); err != nil {
				t.Errorf("scan: %v", err)
			}
			scanned.Fire()
		})
		checkpointed.Await(p)
		paused.Await(p)
		for round := byte(2); round <= 3; round++ {
			put(round) // 150 puts of 73 bytes: more than two 4 KiB chunks
			if err := st.Checkpoint(p); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		resume.Fire()
		scanned.Await(p)

		for _, r := range held {
			if !bytes.Equal(r.k, r.kc) || !bytes.Equal(r.v, r.vc) {
				t.Fatalf("a held row changed: %q = %q, was %q = %q", r.k, r.v, r.kc, r.vc)
			}
		}
		i := 0
		if err := sn.Scan(p, func(k, v []byte) bool {
			if i >= len(first) || !bytes.Equal(k, first[i].kc) || !bytes.Equal(v, first[i].vc) {
				t.Fatalf("snapshot row %d = %q:%q on a second scan, want the first scan's %d rows", i, k, v, len(first))
			}
			i++
			return true
		}); err != nil || i != len(first) {
			t.Fatalf("second snapshot scan: %d rows, %v; want %d", i, err, len(first))
		}
		sn.Release()
	})
}

// TestConcurrentCheckpointsOnTwoStores: two stores on one engine
// checkpoint at once, each suspending in the middle of its tree's
// ApplyBatch while the other's runs, and both trees end equal to their
// models — each tree's merge scratch belongs to its one writer.
func TestConcurrentCheckpointsOnTwoStores(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		stores := make([]*Store, 2)
		models := make([]map[string]string, 2)
		for s := range stores {
			sys, err := BuildConservative(p, eng, buildFlash(t, eng), 64, 2, Config{CacheFrames: 4, CheckpointBytes: 1 << 30})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			stores[s], models[s] = sys.Store, map[string]string{}
			loadStore(t, p, sys.Store, 300)
			for i := 0; i < 300; i++ {
				models[s][string(scanKey(i))] = string(bytes.Repeat([]byte{byte(i)}, 64))
			}
		}
		for round := 0; round < 3; round++ {
			for s, st := range stores {
				// Different keys and values per store, every leaf rewritten.
				for i := s; i < 300; i += 3 + round {
					k, v := scanKey(i), fmt.Sprintf("s%d-r%d-%d", s, round, i)
					if err := st.ApplyBatch(p, []BatchOp{{Key: k, Value: []byte(v)}}); err != nil {
						t.Fatalf("put: %v", err)
					}
					models[s][string(k)] = v
				}
			}
			wg := sim.NewWaitGroup(eng)
			wg.Add(len(stores))
			for _, st := range stores {
				eng.Go(func(q *sim.Proc) {
					if err := st.Checkpoint(q); err != nil {
						t.Errorf("checkpoint: %v", err)
					}
					wg.Done()
				})
			}
			p.Sleep(sim.Microsecond)
			if !stores[0].checkpointing || !stores[1].checkpointing {
				t.Fatal("the two checkpoints did not overlap")
			}
			wg.Wait(p)
		}
		for s, st := range stores {
			n := 0
			var c btree.Cursor
			ok, err := c.Seek(p, st.tree, nil)
			for ; ok && err == nil; ok, err = c.Next(p) {
				if want, ok := models[s][string(c.Key)]; !ok || want != string(c.Value) {
					t.Fatalf("store %d tree row %q = %q, model has %q", s, c.Key, c.Value, want)
				}
				n++
			}
			if err != nil {
				t.Fatalf("store %d scan: %v", s, err)
			}
			if n != len(models[s]) {
				t.Fatalf("store %d tree has %d rows, model %d", s, n, len(models[s]))
			}
		}
	})
	eng.Run()
}
