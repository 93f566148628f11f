package ftl

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// A flush waits for the writes acknowledged before it and nothing else:
// one stream writes a page and flushes while a second keeps writing
// other pages, and the flush is done one program after its own page was
// dispatched — not when the device next falls quiet.
func TestFlushWaitsOnlyForPriorWrites(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 64
	eng, f := newTinyFTL(t, cfg)

	var issued, flushed sim.Time
	f.WriteLPN(0, pageData(256, 0xA0), func(error) {
		issued = eng.Now()
		f.Flush(func() { flushed = eng.Now() })
	})
	// The other stream: a new page every 100µs for 4ms, faster than four
	// chips programming at 600µs can retire them.
	const others = 40
	var lastOther sim.Time
	for i := 1; i <= others; i++ {
		at := sim.Time(i) * 100 * sim.Microsecond
		eng.Schedule(at, func() {
			lastOther = eng.Now()
			f.WriteLPN(int64(i), pageData(256, byte(i)), func(error) {})
		})
	}
	eng.Run()

	if flushed == 0 {
		t.Fatal("flush never completed")
	}
	spec := tinySpec()
	transfer := 10 * sim.Microsecond // command + 256 B at 200 MB/s, generously
	if limit := issued + spec.Timing.ProgramPage + transfer; flushed > limit {
		t.Fatalf("flush issued at %v completed at %v, want by %v (one program + transfer): it waited for traffic it does not cover (the other stream wrote until %v)",
			issued, flushed, limit, lastOther)
	}
	// Once the flush is served the buffer is a write-back cache again: the
	// other stream's 40 pages sit under the high watermark, unprogrammed.
	if f.arr.PagePrograms != 1 || f.buf.entries.n != others {
		t.Fatalf("%d programs and %d pages buffered after the run, want 1 and %d: the buffer kept draining after the flush was served",
			f.arr.PagePrograms, f.buf.entries.n, others)
	}
	if got := mustRead(t, eng, f, 0); got == nil || got[0] != 0xA0 {
		t.Fatal("flushed page wrong on read-back")
	}
}

// A flush issued while another chip is mid-erase for GC does not wait
// the 3 ms out: collection is the device's own business.
func TestFlushIgnoresGCAndErase(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 4
	cfg.Placement = PlaceStatic // lpn % 4 picks the chip: only chip 0 is churned
	eng, f := newTinyFTL(t, cfg)
	chips := int64(f.arr.Chips())

	// Rewrite one block's worth of chip 0's pages, each write flushed to
	// flash, until the chip runs low and its collector erases a block of
	// pure garbage. eraseAt is the instant that erase is issued.
	var eraseAt sim.Time
	for i := int64(0); eraseAt == 0; i++ {
		if i > 1000 {
			t.Fatal("chip 0 never collected")
		}
		landed := false
		f.WriteLPN((i%4)*chips, pageData(256, byte(i)), func(error) {
			f.Flush(func() { landed = true })
		})
		for !landed && eraseAt == 0 {
			if !eng.Step() {
				t.Fatal("engine drained with a flush pending")
			}
			if f.Stats().GCErases > 0 {
				eraseAt = eng.Now()
			}
		}
	}
	if f.buf.flushing != 0 || f.buf.entries.n != 0 {
		t.Fatalf("buffer not settled at the erase: %d buffered, %d in flight", f.buf.entries.n, f.buf.flushing)
	}

	var flushed sim.Time
	f.WriteLPN(1, pageData(256, 0xB1), func(error) {
		f.Flush(func() { flushed = eng.Now() })
	})
	eng.Run()
	if flushed == 0 {
		t.Fatal("flush never completed")
	}
	if eraseEnd := eraseAt + tinySpec().Timing.EraseBlock; flushed >= eraseEnd {
		t.Fatalf("flush of a page on chip 1 completed at %v: it sat out chip 0's erase (%v to %v)", flushed, eraseAt, eraseEnd)
	}
}

// A crash that empties a volatile buffer under a pending flush settles
// it: the callback fires once — when the programs already on their way
// to flash land — never zero times and never twice.
func TestFlushPendingAcrossCrash(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 64
	cfg.BufferSafe = false
	eng, f := newTinyFTL(t, cfg)
	for i := int64(0); i < 10; i++ {
		f.WriteLPN(i, pageData(256, byte(i)), func(error) {})
	}
	fired := 0
	f.Flush(func() { fired++ })
	eng.RunUntil(eng.Now() + 100*sim.Microsecond) // four programs in flight, six pages still buffered
	if fired != 0 {
		t.Fatal("flush completed before any program could")
	}
	if lost := f.DropVolatileBuffer(); len(lost) != 6 {
		t.Fatalf("crash lost %v, want the six pages still buffered", lost)
	}
	if fired != 0 {
		t.Fatal("flush completed at the crash with covered programs still in flight")
	}
	eng.Run()
	if fired != 1 {
		t.Fatalf("flush callback fired %d times across a crash, want exactly once", fired)
	}
}

// A page trimmed while a flush still has it buffered leaves nothing to
// make durable: the flush completes with the pages that remain.
func TestFlushStopsWaitingForTrimmedPages(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.BufferPages = 64
	eng, f := newTinyFTL(t, cfg)
	for i := int64(0); i < 10; i++ {
		f.WriteLPN(i, pageData(256, byte(i)), func(error) {})
	}
	var flushed sim.Time
	f.Flush(func() { flushed = eng.Now() }) // four programs go out, six pages wait their turn
	for _, lpn := range f.buf.entries.lpns() {
		if err := f.Trim(lpn); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if flushed == 0 {
		t.Fatal("flush never completed: it is waiting for pages that were trimmed")
	}
	if limit := tinySpec().Timing.ProgramPage + 20*sim.Microsecond; flushed > limit {
		t.Fatalf("flush completed at %v, want by %v: one round of programs, the rest were trimmed", flushed, limit)
	}
	if f.arr.PagePrograms != 4 {
		t.Fatalf("%d programs, want the 4 dispatched before the trims", f.arr.PagePrograms)
	}
}

// The durability contract, from seeds: over random writes, overwrites
// in place, trims, flushes and crashes on a volatile-buffered device,
// every LPN acknowledged before a flush was issued survives any crash
// taken after that flush completed, holding the value it had at the
// flush or a newer one.
func TestPropertyFlushedWritesSurviveCrash(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		if err := flushCrashRun(t, seed, false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// The battery-backed buffer's contract, from the same seeds: a crash
// loses nothing, so after it every LPN reads back its newest
// acknowledged version, or nothing after a trim — whether a flush
// covered the write or not. Once a safe buffer acknowledges an
// overwrite it holds the LPN's only live copy (writeBuffer.supersede),
// so this is what that rests on.
func TestPropertySafeBufferLosesNoAcknowledgedWrite(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		if err := flushCrashRun(t, seed, true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// flushCrashRun runs one seeded script of writes, trims, flushes and
// crashes on a volatile or a battery-backed (safe) buffer and checks
// what each crash leaves against that buffer's contract.
func flushCrashRun(t *testing.T, seed int64, safe bool) error {
	cfg := writeThroughConfig()
	cfg.BufferPages = 8 // small enough to stall, drain by watermark and coalesce
	cfg.BufferSafe = safe
	eng, f := newTinyFTL(t, cfg)
	rng := rand.New(rand.NewSource(seed))
	const lpns = 24

	// Every write carries a fresh version; acked[lpn] is the newest
	// version acknowledged, trimmedAt[lpn] the step of its last trim. An
	// LPN with a write outstanding is left alone: commands racing on one
	// page have no order to hold the device to.
	type flushRec struct {
		step int
		want map[int64]uint32
		done bool
	}
	var (
		version   uint32
		inFlight  = map[int64]bool{}
		acked     = map[int64]uint32{}
		trimmedAt = map[int64]int{}
		flushes   []*flushRec
	)
	page := func(lpn int64, v uint32) []byte {
		d := make([]byte, f.PageSize())
		binary.LittleEndian.PutUint32(d, v)
		binary.LittleEndian.PutUint64(d[4:], uint64(lpn))
		return d
	}
	// crashAndCheck crashes, lets the device settle, and holds what is
	// left against every flush that had completed by the crash.
	crashAndCheck := func(step int) error {
		var completed []*flushRec
		for _, fr := range flushes {
			if fr.done {
				completed = append(completed, fr)
			}
		}
		f.DropVolatileBuffer()
		eng.Run()
		have := map[int64]uint32{}
		for lpn := int64(0); lpn < lpns; lpn++ {
			var got []byte
			var gerr error
			f.ReadLPN(lpn, func(d []byte, err error) { got, gerr = d, err })
			eng.Run()
			if gerr != nil {
				return fmt.Errorf("step %d: read lpn %d: %v", step, lpn, gerr)
			}
			if got == nil {
				continue
			}
			if owner := int64(binary.LittleEndian.Uint64(got[4:])); owner != lpn {
				return fmt.Errorf("step %d: lpn %d holds lpn %d's page", step, lpn, owner)
			}
			have[lpn] = binary.LittleEndian.Uint32(got)
		}
		for lpn := int64(0); safe && lpn < lpns; lpn++ {
			want, wok := acked[lpn]
			if got, ok := have[lpn]; ok != wok || got != want {
				return fmt.Errorf("step %d: lpn %d was acknowledged at version %d (present %v); after the crash it holds %d (present %v)",
					step, lpn, want, wok, got, ok)
			}
		}
		for _, fr := range completed {
			for lpn, want := range fr.want {
				if at, ok := trimmedAt[lpn]; ok && at > fr.step {
					continue // trimmed since: nothing was promised
				}
				if got, ok := have[lpn]; !ok || got < want {
					return fmt.Errorf("step %d: lpn %d acknowledged at version %d before the flush of step %d, which completed; after the crash it holds %d (present %v)",
						step, lpn, want, fr.step, got, ok)
				}
			}
		}
		// What survived is the new baseline.
		acked, flushes = have, nil
		trimmedAt = map[int64]int{}
		return nil
	}

	for step := 1; step <= 300; step++ {
		lpn := int64(rng.Intn(lpns))
		switch r := rng.Intn(100); {
		case inFlight[lpn]:
		case r < 60:
			version++
			v := version
			inFlight[lpn] = true
			f.WriteLPN(lpn, page(lpn, v), func(err error) {
				delete(inFlight, lpn)
				if err == nil {
					acked[lpn] = v
				}
			})
		case r < 70:
			if err := f.Trim(lpn); err != nil {
				return err
			}
			delete(acked, lpn)
			trimmedAt[lpn] = step
		case r < 92:
			fr := &flushRec{step: step, want: map[int64]uint32{}}
			for l, v := range acked {
				fr.want[l] = v
			}
			flushes = append(flushes, fr)
			f.Flush(func() {
				if fr.done {
					t.Errorf("seed %d: flush of step %d completed twice", seed, fr.step)
				}
				fr.done = true
			})
		default:
			if err := crashAndCheck(step); err != nil {
				return err
			}
		}
		// Let a random slice of time pass: from nothing (back-to-back
		// commands) to a couple of programs.
		eng.RunUntil(eng.Now() + sim.Time(rng.Intn(1200))*sim.Microsecond)
	}
	eng.Run()
	for _, fr := range flushes {
		if !fr.done {
			return fmt.Errorf("flush of step %d never completed", fr.step)
		}
	}
	return crashAndCheck(301)
}
