package ftl

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/sim"
)

// Background write-back takes the front of the lowest count list: LPN 0,
// admitted first and rewritten after eleven later admissions, has the
// count of two writes, so it stays resident while the pages written
// once, admitted after it, go to flash in the order they were written.
func TestWriteBackTakesTheLeastWrittenFirst(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 16 // write-back starts above 12 entries and stops at 8
	eng, f := newTinyFTL(t, cfg)
	ps := f.PageSize()
	for lpn := int64(0); lpn < 12; lpn++ {
		f.WriteLPN(lpn, pageData(ps, byte(lpn)), func(error) {})
	}
	f.WriteLPN(0, pageData(ps, 0xF0), func(error) {})
	f.WriteLPN(12, pageData(ps, 12), func(error) {}) // 13 entries: past the high watermark
	eng.Run()

	if f.arr.PagePrograms != 5 || f.buf.resident != 8 {
		t.Fatalf("%d programs and %d pages buffered, want 5 and 8", f.arr.PagePrograms, f.buf.resident)
	}
	if f.buf.slotOf(0) == 0 {
		t.Fatal("LPN 0, written twice, was written back before pages written once")
	}
	for lpn := int64(1); lpn <= 5; lpn++ {
		if f.buf.slotOf(lpn) != 0 {
			t.Errorf("LPN %d, among the least recently written of the pages written once, is still buffered", lpn)
		}
	}
	if got := mustRead(t, eng, f, 0); got[0] != 0xF0 {
		t.Fatalf("LPN 0 reads %#x, want the rewrite's 0xf0", got[0])
	}
	checkBufferLists(t, f.buf)
}

// A flush drains exactly the entries it covers, first: a covered entry
// rewritten after the flush keeps its place in the write-back queue, so
// the flush completes once its six pages are programmed, and a page
// admitted after it stays buffered.
func TestFlushDrainsWhatItCovers(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 16
	eng, f := newTinyFTL(t, cfg)
	ps := f.PageSize()
	for lpn := int64(0); lpn < 6; lpn++ {
		f.WriteLPN(lpn, pageData(ps, byte(lpn)), func(error) {})
	}
	programsAtFlush := int64(-1)
	f.Flush(func() { programsAtFlush = f.arr.PagePrograms })
	// One write-back per chip is on its way; LPNs 4 and 5 are still
	// buffered, covered. LPN 4 is rewritten after LPN 6 is admitted.
	f.WriteLPN(6, pageData(ps, 6), func(error) {})
	f.WriteLPN(4, pageData(ps, 0xF4), func(error) {})
	eng.Run()

	if programsAtFlush != 6 {
		t.Fatalf("flush completed after %d programs were issued, want its 6 covered pages", programsAtFlush)
	}
	if f.arr.PagePrograms != 6 || f.buf.resident != 1 {
		t.Fatalf("%d programs and %d pages buffered after the run, want 6 and 1", f.arr.PagePrograms, f.buf.resident)
	}
	if f.buf.slotOf(6) == 0 {
		t.Fatal("LPN 6, admitted after the flush, was written back")
	}
	if got := mustRead(t, eng, f, 4); got[0] != 0xF4 {
		t.Fatalf("LPN 4 reads %#x, want the rewrite's 0xf4", got[0])
	}
}

// Rewrites move an entry within the lists its slot is linked into and
// allocate nothing: pages rewritten while the buffer sits below its
// high watermark leave every list holding exactly the resident entries,
// in the slots the buffer was built with, and a flush still writes each
// of them back once.
func TestRewritesKeepTheQueueBounded(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 16
	eng, f := newTinyFTL(t, cfg)
	slots := &f.buf.slots[0]
	for i := 0; i < 10000; i++ {
		f.WriteLPN(int64(i%4), pageData(f.PageSize(), byte(i)), func(error) {})
	}
	eng.Run()
	if len(f.buf.slots) != f.buf.cap+1 || &f.buf.slots[0] != slots || f.buf.resident != 4 {
		t.Fatalf("%d slots (moved: %v) for %d buffered pages, want the %d it was built with for 4",
			len(f.buf.slots), &f.buf.slots[0] != slots, f.buf.resident, f.buf.cap+1)
	}
	checkBufferLists(t, f.buf)
	flushed := false
	f.Flush(func() { flushed = true })
	eng.Run()
	if !flushed || f.arr.PagePrograms != 4 {
		t.Fatalf("flush done %v after %d programs, want true after 4", flushed, f.arr.PagePrograms)
	}
	for lpn := int64(0); lpn < 4; lpn++ {
		if got, want := mustRead(t, eng, f, lpn)[0], byte(9996+lpn); got != want {
			t.Errorf("LPN %d reads %#x, want its last write's %#x", lpn, got, want)
		}
	}
}

// Scan resistance: a page rewritten while buffered has a higher count
// than the pages of a burst of one-shot admissions, so the burst passes
// through the buffer and leaves it resident. A least-recently-written
// buffer writes it back once the burst has pushed it to the front.
func TestRewrittenPageOutlivesOneShotBurst(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 16 // write-back stops at 8 entries
	eng, f := newTinyFTL(t, cfg)
	ps := f.PageSize()
	f.WriteLPN(0, pageData(ps, 0), func(error) {})
	f.WriteLPN(0, pageData(ps, 0xF0), func(error) {})
	for lpn := int64(1); lpn <= 40; lpn++ {
		f.WriteLPN(lpn, pageData(ps, byte(lpn)), func(error) {})
	}
	eng.Run()

	if f.arr.PagePrograms != 33 || f.buf.resident != 8 {
		t.Fatalf("%d programs and %d pages buffered, want 33 and 8", f.arr.PagePrograms, f.buf.resident)
	}
	if f.buf.slotOf(0) == 0 {
		t.Fatal("LPN 0, rewritten while buffered, was written back by a burst of one-shot writes")
	}
	if got := mustRead(t, eng, f, 0); got[0] != 0xF0 {
		t.Fatalf("LPN 0 reads %#x, want the rewrite's 0xf0", got[0])
	}
}

// A page's count outlives its stay in the buffer: LPN 0, written four
// times and then written back by a flush, comes back on the list of its
// fifth write when it is written again, so a later burst of one-shot
// writes passes it by. A segmented LRU admits it on probation, where
// the burst pushes it out first.
func TestReadmittedHotPageOutlivesOneShotBurst(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 16
	eng, f := newTinyFTL(t, cfg)
	ps := f.PageSize()
	for i := 0; i < 4; i++ {
		mustWrite(t, eng, f, 0, byte(i))
	}
	f.Flush(func() {})
	eng.Run()
	if f.buf.resident != 0 || f.arr.PagePrograms != 1 {
		t.Fatalf("%d pages buffered after %d programs, want the flush to have written LPN 0 back alone",
			f.buf.resident, f.arr.PagePrograms)
	}
	f.WriteLPN(0, pageData(ps, 0xF0), func(error) {})
	for lpn := int64(1); lpn <= 40; lpn++ {
		f.WriteLPN(lpn, pageData(ps, byte(lpn)), func(error) {})
	}
	eng.Run()

	if f.buf.slotOf(0) == 0 {
		t.Fatal("LPN 0, written five times, was written back by a burst of pages written once")
	}
	if got := mustRead(t, eng, f, 0); got[0] != 0xF0 {
		t.Fatalf("LPN 0 reads %#x, want the last write's 0xf0", got[0])
	}
	checkBufferLists(t, f.buf)
}

// Halving every count moves each count list down one whole, and merges
// the two lowest, whose counts both halve to 0, in last-write order: a
// page written once before the first halving and one rewritten after
// it interleave by when they were last written, the order write-back
// takes them in.
func TestHalvingMergesTheLowestListsByLastWrite(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 16 // write-back starts above 12 entries
	eng, f := newTinyFTL(t, cfg)
	for _, lpn := range []int64{1, 2, 2, 3, 4, 4, 4} {
		mustWrite(t, eng, f, lpn, byte(lpn))
	}
	f.buf.halve() // counts 1, 2, 1, 3 → 0, 1, 0, 1
	mustWrite(t, eng, f, 5, 5)
	mustWrite(t, eng, f, 1, 0xF1) // 0 → 1
	checkBufferLists(t, f.buf)
	f.buf.halve() // all 0: LPN 3 last written after 2 and before 4, 5 and 1
	checkBufferLists(t, f.buf)
	var order []int64
	for i := f.buf.byCount[0].head; i != 0; i = f.buf.slots[i].links[countLink].next {
		order = append(order, f.buf.slots[i].lpn)
	}
	if want := []int64{2, 3, 4, 5, 1}; !slices.Equal(order, want) || f.buf.byCount[1].head != 0 {
		t.Fatalf("count list 0 holds LPNs %v (list 1 empty: %v), want %v", order, f.buf.byCount[1].head == 0, want)
	}
}

// Counts decay: LPN 0, written 255 times and then no more, halves every
// 1 600 host writes, to 31 by the third halving, while the counts of the
// 95 other LPNs written in turn climb past 16, onto the same log2 list;
// there LPN 0 is the least recently written, so it is written back. By
// the 6 400th write it has halved four times. Without the halving its
// 255 would outrank the others' 67 and keep it buffered for good.
func TestCountsDecay(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 16 // counts halve every 1 600 host writes
	eng, f := newTinyFTL(t, cfg)
	for range 255 {
		mustWrite(t, eng, f, 0, 0)
	}
	for i := range int64(100*16*4 - 255) {
		mustWrite(t, eng, f, 1+i%95, byte(i))
	}
	if f.buf.slotOf(0) != 0 {
		t.Fatal("LPN 0, written often long ago and not since, is still buffered")
	}
	if got := f.buf.counts[0]; got != 255>>4 {
		t.Fatalf("LPN 0 counts %d, want 255 halved four times", got)
	}
	checkBufferLists(t, f.buf)
}

// Under Zipf(0.99) writes the frequency order keeps the hot pages
// buffered: a 128-page buffer over 7 208 LPNs — the benchmark's device
// buffer's share of its LPNs — writes back at most 0.47 pages per host
// write, counted over 20 000 writes after 6 000 of warm-up, across both
// halvings of the counts they bring. Over seeds 1–3 the frequency order
// reads 0.445–0.450 here and the segmented LRU 0.505–0.510.
func TestZipfWriteBacksPerWrite(t *testing.T) {
	spec := tinySpec()
	spec.Geometry.PagesPerBlock, spec.Geometry.BlocksPerPlane = 16, 128
	eng, arr := tinyArrayOf(t, spec, 2, 2)
	cfg := writeThroughConfig()
	cfg.OverProvision = 0.12
	cfg.BufferPages = 128
	cfg.BufferSafe = true
	f, err := NewPageFTL(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	zipf := sim.NewZipf(sim.NewRNG(1), f.Capacity(), 0.99)
	writeBacks := func() int64 { return arr.PagePrograms + arr.CopyBacks - f.stats.GCMoves }
	const warm, writes = 6000, 20000
	var start int64
	for i := 0; i < warm+writes; i++ {
		if i == warm {
			start = writeBacks()
		}
		f.WriteLPN(zipf.Next(), nil, func(error) {})
		eng.Run()
	}
	if got := float64(writeBacks()-start) / writes; got > 0.47 {
		t.Fatalf("%.4f write-backs per Zipf write, want at most 0.47", got)
	}
	checkBufferLists(t, f.buf)
}

// checkBufferLists holds the buffer's lists to its entries: each
// resident entry is on the count list its LPN's count selects, in
// last-write order, and on the admission order, by admission number;
// the lists hold nothing else, and their links agree both ways.
func checkBufferLists(t *testing.T, b *writeBuffer) {
	t.Helper()
	// walk checks list l (count list c, or the admission order when c is
	// negative) and returns its length.
	walk := func(c int, l slotList, k int, before func(p, q *slot) bool) int {
		name := func() string {
			if c < 0 {
				return "admission order"
			}
			return fmt.Sprint("count list ", c)
		}
		n, prev := 0, int32(0)
		for i := l.head; i != 0; i = b.slots[i].links[k].next {
			s := &b.slots[i]
			if s.links[k].prev != prev {
				t.Fatalf("%s: slot %d links back to %d, want %d", name(), i, s.links[k].prev, prev)
			}
			if prev != 0 && !before(&b.slots[prev], s) {
				t.Fatalf("%s: slot %d (LPN %d) is out of order after slot %d", name(), i, s.lpn, prev)
			}
			if b.slotOf(s.lpn) != i {
				t.Fatalf("%s: slot %d holds LPN %d, which is not resident there", name(), i, s.lpn)
			}
			if c >= 0 && bits.Len8(b.counts[s.lpn]) != c {
				t.Fatalf("%s holds LPN %d, whose count is %d", name(), s.lpn, b.counts[s.lpn])
			}
			n, prev = n+1, i
		}
		if l.tail != prev {
			t.Fatalf("%s: tail %d, last slot %d", name(), l.tail, prev)
		}
		return n
	}
	onCount := 0
	for c, l := range b.byCount {
		onCount += walk(c, l, countLink, func(p, q *slot) bool { return p.stamp < q.stamp })
	}
	admitted := walk(-1, b.admitted, admissionLink, func(p, q *slot) bool { return p.seq < q.seq })
	if onCount != b.resident || admitted != b.resident {
		t.Fatalf("%d entries on count lists and %d in admission order, want the %d resident", onCount, admitted, b.resident)
	}
}

// While a flush has covered entries buffered, write-back follows the
// admission order: a covered page written twice goes to flash before a
// page written once and admitted after the flush, which stays buffered
// once the flush completes. By count alone the later page would go
// first.
func TestFlushTakesCoveredHotPageBeforeLaterAdmission(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 16
	eng, f := newTinyFTL(t, cfg)
	ps := f.PageSize()
	f.WriteLPN(0, pageData(ps, 0), func(error) {})
	f.WriteLPN(0, pageData(ps, 0xF0), func(error) {}) // count 2
	for lpn := int64(1); lpn <= 5; lpn++ {
		f.WriteLPN(lpn, pageData(ps, byte(lpn)), func(error) {})
	}
	programsAtFlush, sixBuffered := int64(-1), false
	f.Flush(func() {
		programsAtFlush = f.arr.PagePrograms
		sixBuffered = f.buf.slotOf(6) != 0
	})
	// Four write-backs, one per chip, are on their way; two covered
	// entries are still buffered when LPN 6 is admitted behind them.
	f.WriteLPN(6, pageData(ps, 6), func(error) {})
	eng.Run()

	if programsAtFlush != 6 || !sixBuffered {
		t.Fatalf("flush completed after %d programs with LPN 6 buffered %v, want its 6 covered pages and LPN 6 still buffered",
			programsAtFlush, sixBuffered)
	}
	if f.buf.slotOf(0) != 0 {
		t.Fatal("LPN 0, covered by the flush, is still buffered")
	}
	if got := mustRead(t, eng, f, 0); got[0] != 0xF0 {
		t.Fatalf("LPN 0 reads %#x, want the rewrite's 0xf0", got[0])
	}
}

// A safe buffer's ack of an overwrite kills the LPN's flash copy at
// once, so its block's valid count drops and GC never copies the page;
// a volatile buffer keeps that copy live until the write-back lands,
// because it is what a crash falls back to. Either way the LPN reads
// the new version, and after a crash a safe buffer still serves it
// while a volatile one loses it to the flash copy.
func TestSafeBufferSupersedesFlashCopyOnAck(t *testing.T) {
	for _, safe := range []bool{true, false} {
		name := "volatile"
		if safe {
			name = "safe"
		}
		t.Run(name, func(t *testing.T) {
			cfg := writeThroughConfig()
			cfg.BufferPages = 16 // one entry stays below the high watermark: no write-back
			cfg.BufferSafe = safe
			eng, f := newTinyFTL(t, cfg)
			ps := f.PageSize()
			mustWrite(t, eng, f, 3, 1)
			f.Flush(func() {})
			eng.Run()
			old := f.lookup(3)
			if old == InvalidPPA {
				t.Fatal("flush left lpn 3 unmapped")
			}
			blk := f.arr.BlockOf(old)
			valid := f.blocks[blk].valid

			mustWrite(t, eng, f, 3, 2)
			if f.arr.PagePrograms != 1 {
				t.Fatalf("%d programs, want the first write's 1: the overwrite went to flash", f.arr.PagePrograms)
			}
			if safe {
				if got := f.blocks[blk].valid; got != valid-1 || f.lookup(3) != InvalidPPA || f.rmap[old] != rmapDead {
					t.Fatalf("block valid %d → %d, lpn 3 maps %d, page %d rmap %d: the acknowledged overwrite left its flash copy live",
						valid, got, f.lookup(3), old, f.rmap[old])
				}
			} else if got := f.blocks[blk].valid; got != valid || f.lookup(3) != old {
				t.Fatalf("block valid %d → %d, lpn 3 maps %d: a volatile buffer dropped the copy a crash falls back to",
					valid, got, f.lookup(3))
			}
			if got := mustRead(t, eng, f, 3); !bytes.Equal(got, pageData(ps, 2)) {
				t.Fatal("lpn 3 does not read back its overwrite")
			}
			f.DropVolatileBuffer()
			want := byte(2)
			if !safe {
				want = 1
			}
			if got := mustRead(t, eng, f, 3); !bytes.Equal(got, pageData(ps, want)) {
				t.Fatalf("after the crash lpn 3 reads %d bytes other than version %d", len(got), want)
			}
		})
	}
}
