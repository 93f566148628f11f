package bus

import (
	"testing"

	"repro/internal/sim"
)

func newTestChannel(t *testing.T, cfg Config) (*sim.Engine, *Channel) {
	t.Helper()
	eng := sim.NewEngine()
	ch, err := NewChannel(eng, "ch0", cfg)
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	return eng, ch
}

func TestTransferTime(t *testing.T) {
	_, ch := newTestChannel(t, Config{MBPerSec: 200, CmdOverhead: 0})
	// 4096 bytes at 200 MB/s = 20.48 µs.
	got := ch.TransferTime(4096)
	want := sim.Time(4096 * int64(sim.Second) / 200_000_000)
	if got != want {
		t.Fatalf("TransferTime(4096) = %v, want %v", got, want)
	}
	if ch.TransferTime(0) != 0 || ch.TransferTime(-1) != 0 {
		t.Fatal("non-positive sizes should transfer in zero time")
	}
}

func TestTransfersSerialize(t *testing.T) {
	eng, ch := newTestChannel(t, Config{MBPerSec: 100, CmdOverhead: 0})
	// 1000 bytes at 100MB/s = 10µs each.
	var ends []sim.Time
	eng.Schedule(0, func() {
		ch.Transfer(1000, "a", func(_, end sim.Time) { ends = append(ends, end) })
		ch.Transfer(1000, "b", func(_, end sim.Time) { ends = append(ends, end) })
	})
	eng.Run()
	if len(ends) != 2 || ends[0] != 10*sim.Microsecond || ends[1] != 20*sim.Microsecond {
		t.Fatalf("ends = %v, want [10µs 20µs]", ends)
	}
}

func TestCmdOverheadCharged(t *testing.T) {
	eng, ch := newTestChannel(t, Config{MBPerSec: 100, CmdOverhead: 5 * sim.Microsecond})
	var end sim.Time
	eng.Schedule(0, func() {
		ch.Transfer(1000, "x", func(_, e sim.Time) { end = e })
	})
	eng.Run()
	if end != 15*sim.Microsecond {
		t.Fatalf("end = %v, want 15µs (5 cmd + 10 data)", end)
	}
}

func TestCommandOnly(t *testing.T) {
	eng, ch := newTestChannel(t, Config{MBPerSec: 100, CmdOverhead: 2 * sim.Microsecond})
	var end sim.Time
	eng.Schedule(0, func() {
		ch.Command("erase", func(_, e sim.Time) { end = e })
	})
	eng.Run()
	if end != 2*sim.Microsecond {
		t.Fatalf("command end = %v, want 2µs", end)
	}
}

func TestTransferFromChainsAfterReady(t *testing.T) {
	eng, ch := newTestChannel(t, Config{MBPerSec: 100, CmdOverhead: 0})
	var start sim.Time
	eng.Schedule(0, func() {
		// Data ready at 50µs (e.g. chip tR); channel idle before that.
		ch.TransferFrom(50*sim.Microsecond, 1000, "out", func(s, _ sim.Time) { start = s })
	})
	eng.Run()
	if start != 50*sim.Microsecond {
		t.Fatalf("transfer started at %v, want 50µs", start)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewChannel(eng, "x", Config{MBPerSec: 0}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewChannel(eng, "x", Config{MBPerSec: 100, CmdOverhead: -1}); err == nil {
		t.Error("negative overhead accepted")
	}
}

func TestServerExposed(t *testing.T) {
	_, ch := newTestChannel(t, ONFI2)
	if ch.Server() == nil {
		t.Fatal("Server() not exposed correctly")
	}
}

func TestPresets(t *testing.T) {
	if ONFI2.MBPerSec != 200 || ONFI1.MBPerSec != 40 {
		t.Fatal("preset bandwidths changed unexpectedly")
	}
}
