package obs

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestProfilerClosureAndCauses: the tap-fed cause ledger closes exactly
// against the servers' own busy counters, labels map to the cause
// taxonomy, and utilization normalizes by group capacity (a chip's LUN
// servers share one resource).
func TestProfilerClosureAndCauses(t *testing.T) {
	eng := sim.NewEngine()
	lun0 := sim.NewServer(eng, "lun0")
	lun1 := sim.NewServer(eng, "lun1")
	ch := sim.NewServer(eng, "ch")

	p := NewProfiler(0)
	p.Attach(ResChip, "chip0", lun0, lun1)
	p.Attach(ResChannel, "ch0", ch)

	lun0.Use(100, "read", nil)
	lun0.Use(200, "prog", nil)
	lun1.Use(50, "erase", nil)
	lun1.Use(25, "copyback", nil)
	ch.Use(40, "xfer-out", nil)
	ch.Use(60, "gc-xfer-in", nil)
	eng.Schedule(1000, func() { ch.Use(0, "xfer-out", nil) }) // pin window end
	eng.Run()

	snap := p.Snapshot()
	if snap.UnattributedNs() != 0 || snap.DoubleCountedNs() != 0 || snap.OtherNs() != 0 {
		t.Fatalf("profile did not close: %+v", snap.Resources)
	}
	if snap.WindowNs != 1000 {
		t.Fatalf("window = %d, want 1000", snap.WindowNs)
	}
	byName := map[string]ResourceProfile{}
	for _, r := range snap.Resources {
		byName[r.Name] = r
	}
	chip := byName["chip0"]
	if chip.Causes["read"] != 100 || chip.Causes["program"] != 200 ||
		chip.Causes["erase"] != 50 || chip.Causes["gc-copy"] != 25 {
		t.Fatalf("chip causes = %v", chip.Causes)
	}
	// 375 ns attributed over a 1000 ns window shared by 2 LUN servers.
	if got, want := chip.Utilization, 375.0/2000.0; got != want {
		t.Fatalf("chip utilization = %v, want %v", got, want)
	}
	chp := byName["ch0"]
	if chp.Causes["read"] != 40 || chp.Causes["gc-copy"] != 60 {
		t.Fatalf("channel causes = %v", chp.Causes)
	}
}

// TestCauseTaxonomy: every live occupancy label in the stack has a
// named cause; anything unknown lands in "other".
func TestCauseTaxonomy(t *testing.T) {
	cases := []struct {
		kind  ResourceKind
		label string
		want  string
	}{
		{ResChip, "read", "read"},
		{ResChip, "prog", "program"},
		{ResChip, "erase", "erase"},
		{ResChip, "copyback", "gc-copy"},
		{ResChip, "gc-read", "gc-copy"},
		{ResChip, "gc-prog", "gc-copy"},
		{ResChip, "map-read", "map"},
		{ResChip, "map-prog", "map"},
		{ResChannel, "xfer-out", "read"},
		{ResChannel, "xfer-in", "program"},
		{ResChannel, "erase-cmd", "erase"},
		{ResChannel, "gc-xfer-out", "gc-copy"},
		{ResChannel, "gc-xfer-in", "gc-copy"},
		{ResChannel, "map-xfer", "map"},
		{ResLink, "cmd", "command"},
		{ResLink, "flush-cmd", "command"},
		{ResLink, "read-xfer", "read-transfer"},
		{ResLink, "write-xfer", "write-transfer"},
		{ResLink, "nameless-xfer", "write-transfer"},
		{ResLink, "atomic-xfer", "write-transfer"},
		{ResCPU, "complete", "complete"},
		{ResCPU, "read-submit", "submit"},
		{ResLock, "queue-lock", "hold"},
		{ResChip, "mystery", "other"},
		{ResLock, "read", "other"},
	}
	for _, c := range cases {
		if got := causeOf(c.kind, c.label); got != c.want {
			t.Errorf("causeOf(%s, %q) = %q, want %q", c.kind, c.label, got, c.want)
		}
	}
}

// TestProfilerOtherBucket: an unrecognized label is still attributed
// (the profile closes) but flagged as unexplained, so E24's other==0
// gate catches new labels nobody claimed.
func TestProfilerOtherBucket(t *testing.T) {
	eng := sim.NewEngine()
	s := sim.NewServer(eng, "s")
	p := NewProfiler(0)
	p.Attach(ResChip, "chip0", s)
	s.Use(70, "mystery-op", nil)
	eng.Run()
	snap := p.Snapshot()
	if snap.UnattributedNs() != 0 || snap.DoubleCountedNs() != 0 {
		t.Fatalf("unknown label broke closure: %+v", snap.Resources)
	}
	if snap.OtherNs() != 70 {
		t.Fatalf("other = %d, want 70", snap.OtherNs())
	}
}

// TestProfilerDoubleAttachDrift: attaching a server to a second
// resource replaces its tap, and the first resource's closure check
// surfaces the theft as unattributed busy time instead of silently
// wrong percentages.
func TestProfilerDoubleAttachDrift(t *testing.T) {
	eng := sim.NewEngine()
	s1 := sim.NewServer(eng, "s1")
	s2 := sim.NewServer(eng, "s2")
	p := NewProfiler(0)
	p.Attach(ResChip, "groupA", s1, s2)
	p.Attach(ResChip, "groupB", s2) // steals s2's tap

	s2.Use(100, "read", nil) // attributed to groupB, busy counted by A
	s1.Use(10, "read", nil)  // fires A's tap, re-reading s1+s2 busy
	eng.Run()

	snap := p.Snapshot()
	var drift int64
	for _, r := range snap.Resources {
		if r.Name == "groupA" {
			drift = r.UnattributedNs
		}
	}
	if drift != 100 {
		t.Fatalf("double attach drift = %d ns unattributed on groupA, want 100", drift)
	}
}

// TestProfilerFoldedFormat: the flame export is sorted
// "kind;name;cause value" lines, one per non-zero cause.
func TestProfilerFoldedFormat(t *testing.T) {
	eng := sim.NewEngine()
	lun := sim.NewServer(eng, "lun")
	ch := sim.NewServer(eng, "ch")
	p := NewProfiler(0)
	p.Attach(ResChip, "chip0", lun)
	p.Attach(ResChannel, "ch0", ch)
	lun.Use(100, "read", nil)
	lun.Use(30, "erase", nil)
	ch.Use(40, "xfer-in", nil)
	eng.Run()

	folded := p.Snapshot().Folded
	if !strings.HasSuffix(folded, "\n") {
		t.Fatalf("folded output not newline-terminated: %q", folded)
	}
	lines := strings.Split(strings.TrimSuffix(folded, "\n"), "\n")
	want := []string{"channel;ch0;program 40", "chip;chip0;erase 30", "chip;chip0;read 100"}
	if len(lines) != len(want) {
		t.Fatalf("folded lines = %v, want %v", lines, want)
	}
	for i, l := range lines {
		if l != want[i] {
			t.Fatalf("folded line %d = %q, want %q", i, l, want[i])
		}
		stack, val, ok := strings.Cut(l, " ")
		if !ok || len(strings.Split(stack, ";")) != 3 {
			t.Fatalf("line %q does not parse as stack + value", l)
		}
		if _, err := strconv.ParseInt(val, 10, 64); err != nil {
			t.Fatalf("line %q value: %v", l, err)
		}
	}
}

// TestTopResourcesAndWaits: the report names the most-utilized resource
// per kind (device-bound flagged), and a wait source's growth over the
// window lands in the snapshot without affecting closure.
func TestTopResourcesAndWaits(t *testing.T) {
	eng := sim.NewEngine()
	hot := sim.NewServer(eng, "hot")
	cold := sim.NewServer(eng, "cold")
	cpu := sim.NewServer(eng, "cpu")
	p := NewProfiler(0)
	p.Attach(ResChip, "chip-hot", hot)
	p.Attach(ResChip, "chip-cold", cold)
	p.Attach(ResCPU, "cpu0", cpu)
	waits := map[string]sim.Time{"latency": 5, "throughput": 9}
	p.AttachWaits("dev0.sched", func() map[string]sim.Time { return waits })

	hot.Use(600, "prog", nil)
	cold.Use(100, "read", nil)
	cpu.Use(200, "write-submit", nil)
	waits["latency"] += 77
	// Pin the window end at 1000 ns (waits don't advance it, taps do).
	eng.Schedule(1000, func() { cold.Use(0, "read", nil) })
	eng.Run()

	snap := p.Snapshot()
	tops := snap.TopResources()
	if len(tops) != 2 {
		t.Fatalf("top resources = %d kinds, want 2", len(tops))
	}
	if tops[0].Resource.Name != "chip-hot" || !tops[0].DeviceBound ||
		tops[0].TopCause != "program" || tops[0].CauseShare != 1 {
		t.Fatalf("top[0] = %+v", tops[0])
	}
	if tops[1].Resource.Name != "cpu0" || tops[1].DeviceBound {
		t.Fatalf("top[1] = %+v", tops[1])
	}
	top, ok := snap.Top()
	if !ok || top.Resource.Name != "chip-hot" {
		t.Fatalf("Top() = %+v, %v", top, ok)
	}
	if w := snap.Waits["dev0.sched"]; w["latency"] != 77 || len(w) != 1 {
		t.Fatalf("waits = %v, want latency's 77 ns alone (throughput did not grow)", snap.Waits)
	}
	if u := p.MaxUtil(ResChip); u != 0.6 {
		t.Fatalf("MaxUtil(chip) = %v, want 0.6", u)
	}
	if u := p.UtilOf(ResChip, "chip-cold"); u != 0.1 {
		t.Fatalf("UtilOf(chip-cold) = %v, want 0.1", u)
	}
}

// TestProfilerWindowStartsAtBuild: a profiler built after busy time
// reports only the busy time and waits that follow, and its closure
// holds over that window.
func TestProfilerWindowStartsAtBuild(t *testing.T) {
	eng := sim.NewEngine()
	s := sim.NewServer(eng, "s")
	waits := map[string]sim.Time{"latency": 300}
	s.Use(500, "read", nil)
	var p *Profiler
	eng.Schedule(500, func() {
		p = NewProfiler(eng.Now())
		p.Attach(ResChip, "chip0", s)
		p.AttachWaits("dev0.sched", func() map[string]sim.Time { return waits })
	})
	eng.Run()
	if snap := p.Snapshot(); snap.WindowNs != 0 || snap.Resources[0].BusyNs != 0 || len(snap.Waits["dev0.sched"]) != 0 {
		t.Fatalf("a fresh profiler reported earlier work: %+v", snap)
	}
	eng.Schedule(600, func() {
		s.Use(40, "prog", nil)
		waits["latency"] += 25
	})
	eng.Run()
	snap := p.Snapshot()
	if snap.WindowNs != 100 {
		t.Fatalf("window = %d ns, want the 100 ns from the build to the last tap", snap.WindowNs)
	}
	if got := snap.Waits["dev0.sched"]["latency"]; got != 25 {
		t.Fatalf("latency wait = %d, want 25", got)
	}
	r := snap.Resources[0]
	if r.BusyNs != 40 || r.AttributedNs != 40 || r.Causes["program"] != 40 || r.Utilization != 0.4 {
		t.Fatalf("window = %+v", r)
	}
	if snap.UnattributedNs() != 0 || snap.DoubleCountedNs() != 0 {
		t.Fatalf("closure broke: %+v", r)
	}
}

// TestProfilerNilSafety: a nil profiler is inert everywhere it is
// consulted (plain runs wire no profiler).
func TestProfilerNilSafety(t *testing.T) {
	var p *Profiler
	p.Attach(ResChip, "chip0", sim.NewServer(sim.NewEngine(), "s"))
	p.AttachWaits("x", func() map[string]sim.Time { return nil })
	if snap := p.Snapshot(); snap.Resources != nil || snap.Folded != "" {
		t.Fatal("nil profiler produced a snapshot")
	}
	if p.MaxUtil(ResChip) != 0 || p.UtilOf(ResChip, "chip0") != 0 {
		t.Fatal("nil profiler reported utilization")
	}
}
