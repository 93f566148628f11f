package ftl

import (
	"math/rand"
	"testing"
)

// Background write-back takes the entry written longest ago: LPN 0,
// admitted first but rewritten after eleven later admissions, stays
// resident while the untouched pages admitted after it go to flash.
func TestWriteBackLeastRecentlyWritten(t *testing.T) {
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

	if f.arr.PagePrograms != 5 || len(f.buf.entries) != 8 {
		t.Fatalf("%d programs and %d pages buffered, want 5 and 8", f.arr.PagePrograms, len(f.buf.entries))
	}
	if _, ok := f.buf.entries[0]; !ok {
		t.Fatal("LPN 0, rewritten after eleven later admissions, was written back before them")
	}
	for lpn := int64(1); lpn <= 5; lpn++ {
		if _, ok := f.buf.entries[lpn]; ok {
			t.Errorf("LPN %d, untouched since its admission, is still buffered", lpn)
		}
	}
	if got := mustRead(t, eng, f, 0); got[0] != 0xF0 {
		t.Fatalf("LPN 0 reads %#x, want the rewrite's 0xf0", got[0])
	}
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
	if f.arr.PagePrograms != 6 || len(f.buf.entries) != 1 {
		t.Fatalf("%d programs and %d pages buffered after the run, want 6 and 1", f.arr.PagePrograms, len(f.buf.entries))
	}
	if _, ok := f.buf.entries[6]; !ok {
		t.Fatal("LPN 6, admitted after the flush, was written back")
	}
	if got := mustRead(t, eng, f, 4); got[0] != 0xF4 {
		t.Fatalf("LPN 4 reads %#x, want the rewrite's 0xf4", got[0])
	}
}

// A rewrite leaves its entry's older queue slot stale. Stale slots go
// before they could outnumber the live ones, so pages rewritten while
// the buffer sits below its high watermark do not grow the queue past
// the slots it was built with, and a flush still writes each of them
// back once.
func TestRewritesKeepTheQueueBounded(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 16
	eng, f := newTinyFTL(t, cfg)
	for i := 0; i < 10000; i++ {
		f.WriteLPN(int64(i%4), pageData(f.PageSize(), byte(i)), func(error) {})
	}
	eng.Run()
	if n, c := f.buf.queue.len(), cap(f.buf.queue.items); n > 2*f.buf.cap || c > 2*f.buf.cap+1 {
		t.Fatalf("%d queue slots, %d allocated, for 4 buffered pages", n, c)
	}
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

// The write buffer's queues pop by advancing a head index and compact
// now and then; the order must be that of a plain slice queue, and a
// queue held at a steady depth must not keep growing its backing array.
func TestFifoMatchesSliceQueueAcrossCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q fifo[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || rng.Intn(100) < 52 {
			q.push(next)
			ref = append(ref, next)
			next++
		} else {
			got, want := q.pop(), ref[0]
			ref = ref[1:]
			if got != want {
				t.Fatalf("step %d: pop = %d, want %d", step, got, want)
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(ref))
		}
	}
	for len(ref) > 0 {
		if got := q.pop(); got != ref[0] {
			t.Fatalf("drain: pop = %d, want %d", got, ref[0])
		}
		ref = ref[1:]
	}
	if q.len() != 0 || q.head != 0 || len(q.items) != 0 {
		t.Fatalf("drained queue not reset: len %d head %d items %d", q.len(), q.head, len(q.items))
	}
}

func TestFifoAtSteadyDepthStaysBounded(t *testing.T) {
	var q fifo[int]
	for i := 0; i < 64; i++ {
		q.push(i)
	}
	for i := 0; i < 100000; i++ {
		q.push(i)
		q.pop()
	}
	if cap(q.items) > 4*64 {
		t.Fatalf("backing array grew to %d slots for a queue 64 deep", cap(q.items))
	}
}
