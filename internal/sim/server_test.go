package sim

import (
	"testing"
	"testing/quick"
)

func TestServerFIFO(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "chip")
	var ends []Time
	e.Schedule(0, func() {
		s.Use(10, "a", func(_, end Time) { ends = append(ends, end) })
		s.Use(10, "b", func(_, end Time) { ends = append(ends, end) })
		s.Use(10, "c", func(_, end Time) { ends = append(ends, end) })
	})
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v (FIFO serialization)", ends, want)
		}
	}
}

func TestServerIdleGap(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "chip")
	var start2 Time
	e.Schedule(0, func() { s.Use(10, "a", nil) })
	e.Schedule(100, func() {
		s.Use(5, "b", func(start, _ Time) { start2 = start })
	})
	e.Run()
	if start2 != 100 {
		t.Fatalf("second op started at %v, want 100 (no time travel)", start2)
	}
}

func TestServerUseFromRespectsReadyTime(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "chan")
	var start Time
	e.Schedule(0, func() {
		// Server free, but op not ready until 50.
		s.UseFrom(50, 10, "x", func(st, _ Time) { start = st })
	})
	e.Run()
	if start != 50 {
		t.Fatalf("op started at %v, want 50", start)
	}
}

func TestServerUseFromQueuesBehindBusy(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "chan")
	var start Time
	e.Schedule(0, func() {
		s.Use(100, "busy", nil)
		s.UseFrom(50, 10, "x", func(st, _ Time) { start = st })
	})
	e.Run()
	if start != 100 {
		t.Fatalf("op started at %v, want 100 (behind busy reservation)", start)
	}
}

func TestServerBusyAndUtilization(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "chip")
	e.Schedule(0, func() {
		s.Use(30, "a", nil)
		s.Use(20, "b", nil)
	})
	e.Schedule(100, func() {}) // extend the clock
	e.Run()
	if s.Busy() != 50 {
		t.Fatalf("Busy = %v, want 50", s.Busy())
	}
	if got := s.Utilization(); got != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
}

func TestServerTrace(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "chip")
	s.StartTrace()
	e.Schedule(0, func() {
		s.Use(10, "read", nil)
		s.Use(20, "write", nil)
	})
	e.Run()
	tr := s.Trace()
	if len(tr) != 2 {
		t.Fatalf("trace has %d intervals, want 2", len(tr))
	}
	if tr[0].Label != "read" || tr[0].Start != 0 || tr[0].End != 10 {
		t.Fatalf("trace[0] = %+v", tr[0])
	}
	if tr[1].Label != "write" || tr[1].Start != 10 || tr[1].End != 30 {
		t.Fatalf("trace[1] = %+v", tr[1])
	}
}

func TestServerQueueDelay(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "chip")
	e.Schedule(0, func() {
		s.Use(100, "long", nil)
		if d := s.FreeAt() - e.Now(); d != 100 {
			t.Errorf("a reservation made now waits %v, want 100", d)
		}
	})
	e.Schedule(200, func() {
		if s.FreeAt() > e.Now() {
			t.Errorf("an idle server frees at %v, after now (%v)", s.FreeAt(), e.Now())
		}
	})
	e.Run()
}

func TestServerNegativeDurationPanics(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "chip")
	defer func() {
		if recover() == nil {
			t.Error("negative duration did not panic")
		}
	}()
	s.Use(-1, "bad", nil)
}

// Property: N back-to-back uses of duration d complete at exactly N*d, and
// intervals never overlap.
func TestPropertyServerSerialization(t *testing.T) {
	f := func(durs []uint8) bool {
		e := NewEngine()
		s := NewServer(e, "x")
		s.StartTrace()
		var sum Time
		e.Schedule(0, func() {
			for _, d := range durs {
				s.Use(Time(d), "", nil)
				sum += Time(d)
			}
		})
		e.Run()
		tr := s.Trace()
		var prevEnd Time
		for _, iv := range tr {
			if iv.Start < prevEnd {
				return false // overlap
			}
			prevEnd = iv.End
		}
		return s.FreeAt() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
