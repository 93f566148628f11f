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

// mustRead reads page id through read (bp.Get or bp.Scan) and fails t
// on an error.
func mustRead(t *testing.T, p *sim.Proc, read func(*sim.Proc, int64) ([]byte, error), id int64) {
	t.Helper()
	if _, err := read(p, id); err != nil {
		t.Errorf("read %d: %v", id, err)
	}
}

// cached lists which of ids the pool holds, by Peek.
func cached(bp *Pool, ids ...int64) []int64 {
	var in []int64
	for _, id := range ids {
		if _, ok := bp.Peek(id); ok {
			in = append(in, id)
		}
	}
	return in
}

// TestScanKeepsTheHotSet: pages point reads warmed survive a range read
// of more pages than the pool holds; the scan cycles through the one
// frame CLOCK would replace. A scan read through Get pushes them all out.
func TestScanKeepsTheHotSet(t *testing.T) {
	eng, bp, _ := newPool(t, 4)
	hot := []int64{1, 2, 3}
	eng.Go(func(p *sim.Proc) {
		for range 2 {
			for _, id := range hot {
				mustRead(t, p, bp.Get, id)
			}
		}
		for id := int64(100); id < 120; id++ {
			mustRead(t, p, bp.Scan, id)
		}
	})
	eng.Run()
	if got := cached(bp, hot...); len(got) != len(hot) {
		t.Fatalf("hot pages %v cached after a 20-page scan, want %v", got, hot)
	}
	if bp.Misses != 3+20 || bp.Evictions != 19 {
		t.Fatalf("misses/evictions %d/%d, want 23/19", bp.Misses, bp.Evictions)
	}
}

// TestScanHitLeavesTheBit: a scan's hit neither promotes a page a scan
// brought in nor demotes one a Get did.
func TestScanHitLeavesTheBit(t *testing.T) {
	eng, bp, _ := newPool(t, 4)
	eng.Go(func(p *sim.Proc) {
		mustRead(t, p, bp.Get, 6)
		mustRead(t, p, bp.Scan, 5)
		mustRead(t, p, bp.Scan, 5)
		mustRead(t, p, bp.Scan, 6)
	})
	eng.Run()
	if bp.Hits != 2 || bp.Misses != 2 {
		t.Fatalf("hits/misses %d/%d, want 2/2", bp.Hits, bp.Misses)
	}
	if got := cached(bp, 5, 6); len(got) != 2 {
		t.Fatalf("cached %v, want [5 6]", got)
	}
	if bp.frames[bp.table[5]].ref {
		t.Fatal("a scan hit set the CLOCK bit of a page on probation")
	}
	if !bp.frames[bp.table[6]].ref {
		t.Fatal("a scan hit cleared the CLOCK bit of a page a Get read")
	}
}

// TestGetPromotesAScannedPage: a point read that hits a page on
// probation gives it the second chance a Get miss would have, so the
// next miss passes it by.
func TestGetPromotesAScannedPage(t *testing.T) {
	eng, bp, _ := newPool(t, 2)
	eng.Go(func(p *sim.Proc) {
		mustRead(t, p, bp.Scan, 5)
		mustRead(t, p, bp.Get, 5)
		mustRead(t, p, bp.Get, 6)
	})
	eng.Run()
	if got := cached(bp, 5, 6); len(got) != 2 {
		t.Fatalf("cached %v after a miss, want [5 6]: the Get hit did not promote page 5", got)
	}

	// Unpromoted, the page on probation is the next miss's victim.
	eng, bp, _ = newPool(t, 2)
	eng.Go(func(p *sim.Proc) {
		mustRead(t, p, bp.Scan, 5)
		mustRead(t, p, bp.Get, 6)
	})
	eng.Run()
	if got := cached(bp, 5, 6); len(got) != 1 || got[0] != 6 {
		t.Fatalf("cached %v, want [6]: the miss did not replace the page on probation", got)
	}
}

// TestSequentialScanRehitsItsPage: a scan that reads its last page again
// (a cursor's next seek into the same leaf) hits it while no other miss
// came in between, and its next page then takes the same frame.
func TestSequentialScanRehitsItsPage(t *testing.T) {
	eng, bp, _ := newPool(t, 4)
	eng.Go(func(p *sim.Proc) {
		mustRead(t, p, bp.Get, 1)
		for id := int64(10); id < 14; id++ {
			mustRead(t, p, bp.Scan, id)
			mustRead(t, p, bp.Scan, id)
		}
	})
	eng.Run()
	if bp.Hits != 4 || bp.Misses != 5 {
		t.Fatalf("hits/misses %d/%d, want 4/5", bp.Hits, bp.Misses)
	}
	if got := cached(bp, 1, 10, 11, 12, 13); len(got) != 2 || got[0] != 1 || got[1] != 13 {
		t.Fatalf("cached %v, want [1 13]: the scan took more than one frame", got)
	}
}

// heldPages is a page store whose every read waits until the test
// releases it: read i's bytes arrive when held[i] fires. It serves
// reads only.
type heldPages struct {
	core.PageStore
	eng  *sim.Engine
	held []*sim.Cond
}

func (h *heldPages) PageSize() int { return 64 }

func (h *heldPages) ReadPage(p *sim.Proc, pageID int64) ([]byte, error) {
	c := sim.NewCond(h.eng)
	h.held = append(h.held, c)
	c.Await(p)
	data := make([]byte, h.PageSize())
	data[0] = byte(pageID)
	return data, nil
}

// checkFrames fails t unless every table entry names a frame that holds
// its page and every used frame is in the table.
func checkFrames(t *testing.T, bp *Pool) {
	t.Helper()
	used := 0
	for _, f := range bp.frames {
		if f.used {
			used++
		}
	}
	for id, idx := range bp.table {
		if f := bp.frames[idx]; !f.used || f.pageID != id {
			t.Fatalf("table names frame %d for page %d, which holds %+v", idx, id, f)
		}
	}
	if used != len(bp.table) {
		t.Fatalf("%d frames in use, %d in the table: a page took two frames", used, len(bp.table))
	}
}

// TestScanMissCachesNoSecondCopy: a scan miss whose page another miss,
// a Get's or a scan's, cached while the scan's read was in flight
// leaves the one frame that miss took.
func TestScanMissCachesNoSecondCopy(t *testing.T) {
	for _, first := range []string{"get", "scan"} {
		t.Run(first, func(t *testing.T) {
			eng := sim.NewEngine()
			held := &heldPages{eng: eng}
			bp, err := New(held, 4)
			if err != nil {
				t.Fatal(err)
			}
			eng.Go(func(p *sim.Proc) {
				if first == "get" {
					mustRead(t, p, bp.Get, 5)
				} else {
					mustRead(t, p, bp.Scan, 5)
				}
			})
			eng.Go(func(p *sim.Proc) { mustRead(t, p, bp.Scan, 5) })
			eng.Go(func(p *sim.Proc) {
				p.Sleep(sim.Microsecond)
				if len(held.held) != 2 {
					t.Errorf("%d reads in flight, want 2", len(held.held))
					return
				}
				held.held[0].Fire()
				p.Sleep(sim.Microsecond)
				held.held[1].Fire()
			})
			eng.Run()
			if bp.Misses != 2 {
				t.Fatalf("misses %d, want 2", bp.Misses)
			}
			checkFrames(t, bp)
			if _, ok := bp.Peek(5); !ok {
				t.Fatal("page 5 not cached")
			}
		})
	}
}
