package nand

import (
	"testing"

	"repro/internal/sim"
)

// Erase suspension: on a part with EraseSuspend an erase runs as
// erasePulses pulses of tBERS/erasePulses (375 µs for the test spec's
// 3 ms erase), a read issued mid-erase runs at the next pulse boundary,
// and programs, copybacks and erases issued mid-erase wait for the
// erase to end, in issue order.

const pulse = 3 * sim.Millisecond / erasePulses

// newSuspendChip is newTestChip on a part with EraseSuspend, with block
// 0 of plane 1 programmed in full and the clock back at a round origin
// (4 ms, after the programs).
func newSuspendChip(t *testing.T) (*sim.Engine, *Chip, sim.Time) {
	t.Helper()
	spec := testSpec()
	spec.EraseSuspend = true
	eng := sim.NewEngine()
	c, err := NewChip(eng, spec, nil, "chip0")
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	for p := 0; p < spec.Geometry.PagesPerBlock; p++ {
		if err := c.Program(Addr{Plane: 1, Page: p}, page512(byte(p)), nil, func(bool) {}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	t0 := 4 * sim.Millisecond
	eng.RunUntil(t0)
	return eng, c, t0
}

func TestReadMidEraseRunsAtThePulseBoundary(t *testing.T) {
	for _, suspend := range []bool{false, true} {
		eng, c, t0 := newSuspendChip(t)
		c.spec.EraseSuspend = suspend
		var readAt, eraseAt sim.Time
		if err := erase(c, BlockAddr{Block: 1}, func(ok bool) { eraseAt = eng.Now() }); err != nil {
			t.Fatal(err)
		}
		eng.Schedule(t0+500*sim.Microsecond, func() {
			c.Read(Addr{Plane: 1, Page: 2}, func(r ReadResult, err error) {
				if err != nil || r.Data[0] != 2 {
					t.Errorf("read mid-erase: %v, %v", err, r.Data[:1])
				}
				readAt = eng.Now()
			})
		})
		eng.Run()
		tR := 50 * sim.Microsecond
		wantRead, wantErase := t0+2*pulse+tR, t0+3*sim.Millisecond+tR
		if !suspend {
			// The whole erase first: Myth 3's stall.
			wantRead, wantErase = t0+3*sim.Millisecond+tR, t0+3*sim.Millisecond
		}
		if readAt != wantRead || eraseAt != wantErase {
			t.Errorf("suspend %v: read at %v, erase at %v; want %v and %v", suspend, readAt-t0, eraseAt-t0, wantRead-t0, wantErase-t0)
		}
	}
}

// TestHeldCommandsRunAfterTheEraseInIssueOrder issues, mid-erase, a
// program, a copyback, a second erase and a program behind it. They
// start when the first erase ends, in that order: the second erase runs
// its pulses (a read still slips in) and holds the last program until it
// ends. Each held command's held time is wait on the LUN's tap, and the
// tap's busy sums to the LUN's.
func TestHeldCommandsRunAfterTheEraseInIssueOrder(t *testing.T) {
	eng, c, t0 := newSuspendChip(t)
	type tapped struct {
		label      string
		wait, busy sim.Time
	}
	var taps []tapped
	var tapBusy sim.Time
	c.LUNServer(0).SetTap(func(label string, wait, busy, _ sim.Time) {
		taps = append(taps, tapped{label, wait, busy})
		tapBusy += busy
	})
	busy0 := c.LUNServer(0).Busy()
	done := map[string]sim.Time{}
	mark := func(name string) func(bool) {
		return func(ok bool) {
			if !ok {
				t.Errorf("%s failed", name)
			}
			done[name] = eng.Now()
		}
	}
	var freeAtErase sim.Time
	erase(c, BlockAddr{Block: 1}, func(bool) {
		done["erase1"] = eng.Now()
		freeAtErase = c.LUNServer(0).FreeAt()
	})
	us := sim.Microsecond
	eng.Schedule(t0+100*us, func() { c.Program(Addr{Block: 2}, nil, nil, mark("prog")) })
	eng.Schedule(t0+200*us, func() { c.CopyBack(Addr{Plane: 1, Page: 0}, Addr{Plane: 1, Block: 2}, mark("copyback")) })
	eng.Schedule(t0+300*us, func() { erase(c, BlockAddr{Block: 3}, mark("erase2")) })
	eng.Schedule(t0+400*us, func() { c.Program(Addr{Block: 2, Page: 1}, nil, nil, mark("prog2")) })
	// Issued during erase2's pulse 2: a read still goes at its end.
	eng.Schedule(t0+4900*us, func() {
		c.Read(Addr{Block: 2}, func(_ ReadResult, err error) {
			if err != nil {
				t.Error(err)
			}
			done["read"] = eng.Now()
		})
	})
	eng.Run()

	tR, tProg, tErase := 50*us, 600*us, 3*sim.Millisecond
	e1 := t0 + tErase
	prog := e1 + tProg
	cb := prog + tR + tProg
	// erase2 starts at cb; the read comes in during its pulse 2 and
	// pushes pulses 3–8 back by tR.
	read := cb + 2*pulse + tR
	e2 := cb + tErase + tR
	want := map[string]sim.Time{
		"erase1": e1, "prog": prog, "copyback": cb, "read": read,
		"erase2": e2, "prog2": e2 + tProg,
	}
	for name, w := range want {
		if done[name] != w {
			t.Errorf("%s done at %v, want %v", name, done[name]-t0, w-t0)
		}
	}
	// The held commands were booked before erase1's completion ran.
	if freeAtErase != cb+pulse {
		t.Errorf("LUN free at %v when erase1 completed, want %v (held commands booked first)", freeAtErase-t0, cb+pulse-t0)
	}
	// Every reservation on the LUN, in booking order.
	var wantTaps []tapped
	book := func(n int, label string, wait, busy sim.Time) {
		for range n {
			wantTaps = append(wantTaps, tapped{label, wait, busy})
		}
	}
	book(erasePulses, "erase", 0, pulse)
	book(1, "prog", e1-(t0+100*us), tProg)
	book(1, "copyback", prog-(t0+200*us), tR+tProg)
	book(1, "erase", cb-(t0+300*us), pulse)
	book(1, "erase", 0, pulse)
	book(1, "read", cb+2*pulse-(t0+4900*us), tR)
	book(1, "erase", tR, pulse)
	book(erasePulses-3, "erase", 0, pulse)
	book(1, "prog", e2-(t0+400*us), tProg)
	if len(taps) != len(wantTaps) {
		t.Fatalf("%d LUN reservations, want %d:\n%v\n%v", len(taps), len(wantTaps), taps, wantTaps)
	}
	for i := range taps {
		if taps[i] != wantTaps[i] {
			t.Errorf("reservation %d = %+v, want %+v", i, taps[i], wantTaps[i])
		}
	}
	if got := c.LUNServer(0).Busy() - busy0; got != tapBusy {
		t.Errorf("Σ tap busy %v, LUN busy %v", tapBusy, got)
	}
	if want := 2*tErase + tProg + tR + tProg + tR + tProg; tapBusy != want {
		t.Errorf("LUN busy %v, want %v", tapBusy, want)
	}
}

// TestLUNFreeAtCountsTheWholeErase: mid-erase, with a program and a
// read issued, LUNFreeAt is when the erase, the read and the program are
// all done, on a part with EraseSuspend as on one without; on the
// suspending part the LUN's server is booked only to the end of the
// pulse in progress and the read behind it.
func TestLUNFreeAtCountsTheWholeErase(t *testing.T) {
	us := sim.Microsecond
	tR, tProg, tErase := 50*us, 600*us, 3*sim.Millisecond
	for _, suspend := range []bool{false, true} {
		eng, c, t0 := newSuspendChip(t)
		c.spec.EraseSuspend = suspend
		erase(c, BlockAddr{Block: 1}, func(bool) {})
		var freeAt, booked sim.Time
		eng.Schedule(t0+100*us, func() {
			c.Program(Addr{Block: 2}, nil, nil, func(bool) {})
			c.Read(Addr{Plane: 1, Page: 2}, func(ReadResult, error) {})
			freeAt, booked = c.LUNFreeAt(0), c.LUNServer(0).FreeAt()
		})
		eng.Run()
		want := t0 + tErase + tR + tProg
		if freeAt != want {
			t.Errorf("suspend %v: LUNFreeAt %v, want %v", suspend, freeAt-t0, want-t0)
		}
		if suspend && booked != t0+pulse+tR {
			t.Errorf("server booked to %v, want the first pulse and the read: %v", booked-t0, pulse+tR)
		}
	}
}

// TestStallAndTimingScaleReachEveryPulse: a stall set mid-erase holds
// the next pulse, and a timing scale set mid-erase sizes the pulses
// booked after it.
func TestStallAndTimingScaleReachEveryPulse(t *testing.T) {
	us := sim.Microsecond
	for _, tc := range []struct {
		name string
		set  func(c *Chip, now sim.Time)
		want sim.Time // erase completion after the origin
	}{
		// Pulse 1 ends at 375 µs; the other 7 run from the stall's end.
		{"stall", func(c *Chip, now sim.Time) { c.Stall(now + 900*us) }, 1000*us + 7*pulse},
		// Pulse 1 keeps its 375 µs; the other 7 take twice that.
		{"scale", func(c *Chip, _ sim.Time) { c.SetTimingScale(0, 0, 2) }, pulse + 14*pulse},
	} {
		eng, c, t0 := newSuspendChip(t)
		var doneAt sim.Time
		erase(c, BlockAddr{Block: 1}, func(bool) { doneAt = eng.Now() })
		eng.Schedule(t0+100*us, func() { tc.set(c, eng.Now()) })
		eng.Run()
		if doneAt-t0 != tc.want {
			t.Errorf("%s: erase done at %v, want %v", tc.name, doneAt-t0, tc.want)
		}
	}
}

// TestSuspendingChipAllocatesNothing: once warm, a cycle of an erase, a
// read served mid-erase and a block's programs held behind the erase
// allocates nothing — the pulse callback is bound once per LUN, and the
// held queue and command records are reused.
func TestSuspendingChipAllocatesNothing(t *testing.T) {
	eng, c, _ := newSuspendChip(t)
	ppb := c.spec.Geometry.PagesPerBlock
	for p := 0; p < ppb; p++ {
		c.Program(Addr{Block: 0, Page: p}, nil, nil, func(bool) {})
	}
	eng.Run()
	full, empty := 0, 1
	read := func(ReadResult, error) {}
	prog := func(bool) {}
	cycle := func() {
		erase(c, BlockAddr{Block: full}, prog)
		c.Read(Addr{Plane: 1, Page: 1}, read)
		for p := 0; p < ppb; p++ {
			if err := c.Program(Addr{Block: empty, Page: p}, nil, nil, prog); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		full, empty = empty, full
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("%v allocs per erase cycle, want exactly 0", got)
	}
}
