package bufpool

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/ssd"
)

func newPool(t *testing.T, frames int) (*sim.Engine, *Pool, core.PageStore) {
	t.Helper()
	eng := sim.NewEngine()
	dev, err := ssd.Build(eng, ssd.PCM2012, ssd.Options{Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	stackPages := newDirectPages(t, eng, dev)
	bp, err := New(stackPages, frames)
	if err != nil {
		t.Fatal(err)
	}
	return eng, bp, stackPages
}

func newDirectPages(t *testing.T, eng *sim.Engine, dev ssd.Dev) core.PageStore {
	t.Helper()
	stack, err := blockdev.New(eng, dev, blockdev.DefaultConfig(blockdev.Direct))
	if err != nil {
		t.Fatal(err)
	}
	pages, err := core.NewStackPagesRegion(stack, 0, dev.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

func TestPoolMissThenHit(t *testing.T) {
	eng, bp, store := newPool(t, 4)
	eng.Go(func(p *sim.Proc) {
		data := make([]byte, store.PageSize())
		data[0] = 0x55
		if err := store.WritePage(p, 3, data); err != nil {
			t.Errorf("seed write: %v", err)
		}
		got, err := bp.Get(p, 3)
		if err != nil || got[0] != 0x55 {
			t.Errorf("first get: %v %v", got, err)
		}
		got, err = bp.Get(p, 3)
		if err != nil || got[0] != 0x55 {
			t.Errorf("second get: %v %v", got, err)
		}
	})
	eng.Run()
	if bp.Misses != 1 || bp.Hits != 1 {
		t.Fatalf("hits=%d misses=%d", bp.Hits, bp.Misses)
	}
}

func TestPoolEvictsWithClock(t *testing.T) {
	eng, bp, _ := newPool(t, 2)
	eng.Go(func(p *sim.Proc) {
		for id := int64(0); id < 5; id++ {
			if _, err := bp.Get(p, id); err != nil {
				t.Errorf("get %d: %v", id, err)
			}
		}
	})
	eng.Run()
	if bp.Evictions == 0 {
		t.Fatal("no evictions with 5 pages in 2 frames")
	}
	if len(bp.table) > 2 {
		t.Fatalf("resident = %d > frames", len(bp.table))
	}
}

func TestPoolPutPopulates(t *testing.T) {
	eng, bp, _ := newPool(t, 4)
	data := make([]byte, 4096)
	data[0] = 0x77
	bp.Put(9, data)
	eng.Go(func(p *sim.Proc) {
		got, err := bp.Get(p, 9)
		if err != nil || got[0] != 0x77 {
			t.Errorf("get after put: %v %v", got, err)
		}
	})
	eng.Run()
	if bp.Misses != 0 {
		t.Fatal("Put did not avoid the miss")
	}
	// Put of an existing page replaces contents.
	data2 := make([]byte, 4096)
	data2[0] = 0x88
	bp.Put(9, data2)
	eng.Go(func(p *sim.Proc) {
		got, _ := bp.Get(p, 9)
		if got[0] != 0x88 {
			t.Error("Put did not replace")
		}
	})
	eng.Run()
}

func TestPoolInvalidate(t *testing.T) {
	eng, bp, _ := newPool(t, 4)
	bp.Put(1, make([]byte, 4096))
	bp.Invalidate(1)
	if len(bp.table) != 0 {
		t.Fatal("Invalidate left the page resident")
	}
	bp.Invalidate(1) // double-invalidate is a no-op
	eng.Run()
}

func TestPoolRejectsZeroFrames(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Fatal("zero frames accepted")
	}
}

// TestPeekIsNeutral: Peek answers from the table alone — a cached page's
// buffer, nothing for an uncached one — and leaves every frame (its ref
// bit included), the CLOCK hand and the counters exactly as it found
// them, so a residency probe can never change what CLOCK evicts next.
func TestPeekIsNeutral(t *testing.T) {
	eng, bp, _ := newPool(t, 3)
	bp.Put(1, []byte{1})
	bp.Put(2, []byte{2})
	eng.Go(func(p *sim.Proc) {
		// Page 3 evicts nothing; page 4 sweeps the ref bits clear and
		// evicts page 1, leaving 2 and 3 unreferenced.
		for _, id := range []int64{3, 4} {
			if _, err := bp.Get(p, id); err != nil {
				t.Errorf("get %d: %v", id, err)
			}
		}
	})
	eng.Run()
	frames := append([]frame(nil), bp.frames...)
	hand, hits, misses, evictions := bp.hand, bp.Hits, bp.Misses, bp.Evictions
	for _, id := range []int64{1, 2, 3, 4, 5} {
		data, ok := bp.Peek(id)
		idx, cached := bp.table[id]
		if ok != cached {
			t.Fatalf("Peek(%d) ok = %v, cached = %v", id, ok, cached)
		}
		if ok && &data[0] != &bp.frames[idx].data[0] {
			t.Fatalf("Peek(%d) did not return the frame's buffer", id)
		}
	}
	for i, f := range bp.frames {
		if f.pageID != frames[i].pageID || f.ref != frames[i].ref || f.used != frames[i].used {
			t.Fatalf("frame %d: %+v after Peek, %+v before", i, f, frames[i])
		}
	}
	if bp.hand != hand || bp.Hits != hits || bp.Misses != misses || bp.Evictions != evictions {
		t.Fatalf("hand/hits/misses/evictions %d/%d/%d/%d after Peek, %d/%d/%d/%d before",
			bp.hand, bp.Hits, bp.Misses, bp.Evictions, hand, hits, misses, evictions)
	}
	if allocs := testing.AllocsPerRun(100, func() { bp.Peek(2); bp.Peek(9) }); allocs != 0 {
		t.Fatalf("Peek allocates %.1f times", allocs)
	}
}
