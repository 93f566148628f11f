package kvstore

import (
	"bytes"
	"runtime"
	"testing"

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
