package ftl

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// newStallDevice is a tiny buffered device (4 chips, a 16-page buffer,
// safe or volatile) with every LPN written once.
func newStallDevice(t *testing.T, safe bool) (*sim.Engine, *PageFTL) {
	t.Helper()
	cfg := writeThroughConfig()
	cfg.BufferPages, cfg.BufferSafe = 16, safe
	eng, f := newTinyFTL(t, cfg)
	for lpn := range f.Capacity() {
		mustWrite(t, eng, f, lpn, 1)
	}
	return eng, f
}

// driveStalls overwrites uniformly random LPNs of f, 20 times its
// capacity in all, at queue depth depth: faster than flash, so the
// buffer fills and host writes stall on it. A write issues the next one
// when it is acknowledged, so an event issues at most one host write.
// afterEvent runs after every event. It fails if the engine goes idle
// with host writes outstanding.
func driveStalls(t *testing.T, eng *sim.Engine, f *PageFTL, depth int, seed uint64, afterEvent func()) {
	t.Helper()
	rng := sim.NewRNG(seed)
	issued, acked, total := 0, 0, 20*int(f.Capacity())
	var write func()
	write = func() {
		if issued == total {
			return
		}
		issued++
		lpn := rng.Int63n(f.Capacity())
		f.WriteLPN(lpn, pageData(f.PageSize(), byte(issued)), func(err error) {
			if err != nil {
				t.Fatalf("write lpn %d: %v", lpn, err)
			}
			acked++
			write()
		})
	}
	for range depth {
		write()
	}
	for acked < total {
		if !eng.Step() {
			t.Fatalf("the device went idle with %d host writes outstanding, %d of them waiting on the buffer",
				issued-acked, f.buf.waiting.Len())
		}
		afterEvent()
	}
	eng.Run()
}

// parkedWriteBacks returns the admission numbers of the write-backs
// parked on chips for space.
func parkedWriteBacks(f *PageFTL) map[uint64]bool {
	seqs := map[uint64]bool{}
	for c := range f.chips {
		for k, q := 0, &f.chips[c].pending; k < q.Len(); k++ {
			if job := q.At(k); job.buffered {
				seqs[job.seq] = true
			}
		}
	}
	return seqs
}

// stallCases runs body for a safe and a volatile buffer at queue depths
// 8, 12 and 16, from three seeds each.
func stallCases(t *testing.T, body func(t *testing.T, safe bool, depth int, seed uint64)) {
	for _, safe := range []bool{false, true} {
		for _, depth := range []int{8, 12, 16} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("safe=%v/qd%d/seed%d", safe, depth, seed), func(t *testing.T) {
					body(t, safe, depth, seed)
				})
			}
		}
	}
}

// While a host write waits on the full buffer, the flusher hands a chip
// a write-back only when the chip has room and no other write-back
// programming: at every program the flusher issues then, its chip has
// one write-back in flight, and no write-back taken then parks. (Jobs
// parked before the stall began still drain onto their chip when it
// frees space; those programs are not the flusher's.)
func TestStalledBufferHandsEachChipOneWriteBack(t *testing.T) {
	stallCases(t, func(t *testing.T, safe bool, depth int, seed uint64) {
		eng, f := newStallDevice(t, safe)
		parked := parkedWriteBacks(f) // as of the last event
		lastCount := len(parked)      // as of the last program or event
		placed := 0                   // write-backs the flusher placed while a host write waited
		for c := range f.chips {
			f.arr.Chip(c).LUNServer(0).SetTap(func(label string, _, _, _ sim.Time) {
				if label != "prog" {
					return
				}
				n := len(parkedWriteBacks(f))
				drained := n < lastCount
				lastCount = n
				if drained || !f.buf.stalled() {
					return
				}
				placed++
				if wb := f.chips[c].writeBacks; wb > writeBackCap {
					t.Fatalf("at %v chip %d has %d write-backs programming while a host write waits on the full buffer",
						eng.Now(), c, wb)
				}
			})
		}
		driveStalls(t, eng, f, depth, seed, func() {
			now := parkedWriteBacks(f)
			if f.buf.stalled() {
				for seq := range now {
					if !parked[seq] {
						t.Fatalf("at %v the write-back of admission %d parked while a host write waits on the full buffer", eng.Now(), seq)
					}
				}
			}
			parked, lastCount = now, len(now)
		})
		if f.stats.BufferStalls == 0 || placed == 0 {
			t.Fatalf("%d stalls, %d write-backs placed during one: the run never held a host write on the full buffer", f.stats.BufferStalls, placed)
		}
	})
}

// A flusher held back by a stalled host write (no chip has room) starts
// again as soon as one has: an erase landing, a GC pass ending, a
// write-back landing. After every event with a host write waiting and a
// write-back slot free, no chip could take one, and the device never
// goes idle with host writes outstanding (driveStalls).
func TestStalledFlusherResumesWhenRoomFrees(t *testing.T) {
	stallCases(t, func(t *testing.T, safe bool, depth int, seed uint64) {
		eng, f := newStallDevice(t, safe)
		held := 0 // events after which the flusher waited for room
		driveStalls(t, eng, f, depth, seed, func() {
			b := f.buf
			if !b.stalled() || b.flushing >= f.arr.Chips() || b.resident == 0 {
				return
			}
			for c := range f.chips {
				if f.takes(c, true) {
					t.Fatalf("at %v chip %d could take a write-back, but the flusher idles with %d host writes waiting",
						eng.Now(), c, b.waiting.Len())
				}
			}
			held++
		})
		if held == 0 {
			t.Fatal("the flusher never waited for room while a host write waited")
		}
	})
}
