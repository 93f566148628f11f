package experiments

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// quickRun is one experiment's memoised Quick-scale run.
type quickRun struct {
	run  func(Scale) (*Result, error)
	once sync.Once
	res  *Result
	err  error
}

// quickRuns holds one slot per experiment ID, so an experiment's own
// test and TestEveryExperimentHeadlines share a single run. Results are
// read-only once returned.
var quickRuns = func() map[string]*quickRun {
	m := make(map[string]*quickRun, len(All))
	for _, r := range All {
		m[r.ID] = &quickRun{run: r.Run}
	}
	return m
}()

// quick returns experiment id's Quick-scale result, running it at most
// once per test binary.
func quick(t *testing.T, id string) *Result {
	t.Helper()
	q := quickRuns[id]
	q.once.Do(func() { q.res, q.err = q.run(Quick) })
	if q.err != nil {
		t.Fatal(q.err)
	}
	return q.res
}

// cellFloat parses a table cell like "123.4", "12x" or "95%".
func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestE1ReadsChannelBoundWritesChipBound(t *testing.T) {
	r := quick(t, "E1")
	tb := r.Tables[0]
	if tb.Cell(0, 4) != "channel" {
		t.Errorf("reads bound by %q, want channel", tb.Cell(0, 4))
	}
	if tb.Cell(1, 4) != "chip" {
		t.Errorf("writes bound by %q, want chip", tb.Cell(1, 4))
	}
	// Writes take much longer than reads despite identical transfer work.
	readSpan := cellFloat(t, tb.Cell(0, 1))
	writeSpan := cellFloat(t, tb.Cell(1, 1))
	if writeSpan < 3*readSpan {
		t.Errorf("write makespan %v not >> read makespan %v", writeSpan, readSpan)
	}
	if len(r.Figures) != 2 {
		t.Error("missing gantt charts")
	}
}

func TestE2GCRaisesReadTail(t *testing.T) {
	r := quick(t, "E2")
	tb := r.Tables[0]
	idleP99 := cellFloat(t, tb.Cell(0, 2))
	busyP99 := cellFloat(t, tb.Cell(1, 2))
	if busyP99 <= idleP99 {
		t.Errorf("GC did not raise read p99: idle %v, busy %v", idleP99, busyP99)
	}
	if gc := cellFloat(t, tb.Cell(1, 4)); gc == 0 {
		t.Error("no GC erases during phase B")
	}
}

func TestE3DeviceSpreadExceedsChipSpread(t *testing.T) {
	r := quick(t, "E3")
	tb := r.Tables[0]
	// Chip read latency is constant: min == max.
	if tb.Cell(0, 2) != tb.Cell(0, 5) {
		t.Errorf("chip read min %s != max %s", tb.Cell(0, 2), tb.Cell(0, 5))
	}
	// Device read spread is wide.
	devSpread := cellFloat(t, tb.Cell(2, 6))
	if devSpread < 2 {
		t.Errorf("device read max/min = %v, want >= 2", devSpread)
	}
}

func TestE4StaticPlacementLoses(t *testing.T) {
	r := quick(t, "E4")
	tb := r.Tables[0]
	// Rows: dynamic/seq, static/seq, dynamic/collide, static/collide.
	dynCollide := cellFloat(t, tb.Cell(2, 2))
	statCollide := cellFloat(t, tb.Cell(3, 2))
	if statCollide < 2*dynCollide {
		t.Errorf("host-pinned colliding writes (%v ms) not much slower than device-scheduled (%v ms)",
			statCollide, dynCollide)
	}
}

func TestE5GenerationsDiffer(t *testing.T) {
	r := quick(t, "E5")
	tb := r.Tables[0]
	// Rows come in pairs (SW, RW) per device:
	// 0/1 Consumer2008, 2/3 Enterprise2012, ...
	consumerSlow := cellFloat(t, tb.Cell(1, 5))
	enterpriseSlow := cellFloat(t, tb.Cell(3, 5))
	if consumerSlow < 3 {
		t.Errorf("Consumer2008 rand/seq slowdown = %v, want >= 3", consumerSlow)
	}
	if enterpriseSlow > 2 {
		t.Errorf("Enterprise2012 rand/seq slowdown = %v, want <= 2 (myth dead)", enterpriseSlow)
	}
	if consumerSlow < 2*enterpriseSlow {
		t.Errorf("generations should differ strongly: %v vs %v", consumerSlow, enterpriseSlow)
	}
}

func TestE6RandomRaisesWA(t *testing.T) {
	r := quick(t, "E6")
	tb := r.Tables[0]
	// Find greedy/12% rows for SW and RW.
	var seqWA, randWA float64
	for row := 0; row < tb.Rows(); row++ {
		if tb.Cell(row, 1) == "greedy" && tb.Cell(row, 2) == "12%" {
			switch tb.Cell(row, 0) {
			case "SW":
				seqWA = cellFloat(t, tb.Cell(row, 3))
			case "RW":
				randWA = cellFloat(t, tb.Cell(row, 3))
			}
		}
	}
	if randWA <= seqWA {
		t.Errorf("random WA (%v) should exceed sequential WA (%v)", randWA, seqWA)
	}
	if seqWA < 1 || randWA < 1 {
		t.Errorf("WA below 1: seq=%v rand=%v", seqWA, randWA)
	}
}

func TestE7ReadsSlowerThanBufferedWrites(t *testing.T) {
	r := quick(t, "E7")
	tb := r.Tables[0]
	writeP99 := cellFloat(t, tb.Cell(0, 2))
	readP99 := cellFloat(t, tb.Cell(1, 2))
	readMax := cellFloat(t, tb.Cell(1, 3))
	if readP99 <= writeP99 {
		t.Errorf("read p99 (%v) should exceed buffered write p99 (%v)", readP99, writeP99)
	}
	// Reads stall behind erases: max read latency should approach
	// millisecond scale (erase is 3ms).
	if readMax < 1000 {
		t.Errorf("max read latency %vµs; expected erase-scale stalls", readMax)
	}
}

func TestE8ReadBandwidthCollapsesOnCollision(t *testing.T) {
	r := quick(t, "E8")
	tb := r.Tables[0]
	scattered := cellFloat(t, tb.Cell(0, 3))
	collided := cellFloat(t, tb.Cell(1, 3))
	seqWrites := cellFloat(t, tb.Cell(2, 3))
	stridedWrites := cellFloat(t, tb.Cell(3, 3))
	if scattered < 2*collided {
		t.Errorf("collided reads (%v) should be much slower than scattered (%v)", collided, scattered)
	}
	// Writes are pattern-independent: scheduler freedom.
	if stridedWrites < seqWrites*0.7 || stridedWrites > seqWrites*1.3 {
		t.Errorf("write bandwidth should be pattern-independent: seq %v vs strided %v", seqWrites, stridedWrites)
	}
}

func TestE9ScalingDirections(t *testing.T) {
	r := quick(t, "E9")
	tb := r.Tables[0]
	read := map[[2]int]float64{}
	write := map[[2]int]float64{}
	for row := 0; row < tb.Rows(); row++ {
		ch := int(cellFloat(t, tb.Cell(row, 0)))
		cp := int(cellFloat(t, tb.Cell(row, 1)))
		read[[2]int{ch, cp}] = cellFloat(t, tb.Cell(row, 2))
		write[[2]int{ch, cp}] = cellFloat(t, tb.Cell(row, 3))
	}
	// Reads: adding channels helps much more than adding chips.
	readChanGain := read[[2]int{4, 1}] / read[[2]int{1, 1}]
	readChipGain := read[[2]int{1, 4}] / read[[2]int{1, 1}]
	if readChanGain < readChipGain {
		t.Errorf("reads: channel gain %v < chip gain %v", readChanGain, readChipGain)
	}
	// Writes: adding chips on one channel helps much more than channels
	// alone... adding channels with one chip each cannot beat chips.
	writeChipGain := write[[2]int{1, 4}] / write[[2]int{1, 1}]
	if writeChipGain < 2 {
		t.Errorf("writes: chip gain %v, want >= 2", writeChipGain)
	}
}

func TestE10PCMCommitsFaster(t *testing.T) {
	r := quick(t, "E10")
	tb := r.Tables[0]
	// Rows: conservative/1, progressive/1, conservative/8, progressive/8.
	consP50 := cellFloat(t, tb.Cell(0, 3))
	progP50 := cellFloat(t, tb.Cell(1, 3))
	if consP50 < 10*progP50 {
		t.Errorf("PCM commit p50 %vµs vs block %vµs: want >= 10x gap", progP50, consP50)
	}
}

func TestE11CommunicationWins(t *testing.T) {
	r := quick(t, "E11")
	ta := r.Tables[0]
	waInformed := cellFloat(t, ta.Cell(0, 1))
	waBlind := cellFloat(t, ta.Cell(1, 1))
	if waInformed >= waBlind {
		t.Errorf("informed WA (%v) should be below blind WA (%v)", waInformed, waBlind)
	}
	tbl := r.Tables[1]
	atomicT := cellFloat(t, tbl.Cell(0, 1))
	doubleT := cellFloat(t, tbl.Cell(1, 1))
	if atomicT >= doubleT {
		t.Errorf("atomic flip (%vµs) should beat double-write (%vµs)", atomicT, doubleT)
	}
}

func TestE12StackOrdering(t *testing.T) {
	r := quick(t, "E12")
	tb := r.Tables[0]
	// At 8 threads (last row): direct > mq > sq.
	last := tb.Rows() - 1
	sq := cellFloat(t, tb.Cell(last, 1))
	mq := cellFloat(t, tb.Cell(last, 2))
	di := cellFloat(t, tb.Cell(last, 3))
	if !(di > mq && mq > sq) {
		t.Errorf("want direct > mq > sq, got %v > %v > %v", di, mq, sq)
	}
}

func TestE13InterfaceDominatesMedium(t *testing.T) {
	r := quick(t, "E13")
	tb := r.Tables[0]
	busP50 := cellFloat(t, tb.Cell(0, 2))
	ssdP50 := cellFloat(t, tb.Cell(1, 2))
	flashP50 := cellFloat(t, tb.Cell(2, 2))
	if ssdP50 < 5*busP50 {
		t.Errorf("PCM SSD p50 %vµs should be >> memory-bus %vµs", ssdP50, busP50)
	}
	if flashP50 < ssdP50 {
		t.Errorf("flash (%vµs) should be slower than PCM SSD (%vµs)", flashP50, ssdP50)
	}
}

func TestE14MatrixSeparatesGenerations(t *testing.T) {
	r := quick(t, "E14")
	tb := r.Tables[0]
	// Consumer2008 row: RW << SW. Enterprise row: RW ~ SW.
	consSW := cellFloat(t, tb.Cell(0, 3))
	consRW := cellFloat(t, tb.Cell(0, 4))
	entSW := cellFloat(t, tb.Cell(1, 3))
	entRW := cellFloat(t, tb.Cell(1, 4))
	if consRW*2 > consSW {
		t.Errorf("Consumer2008 RW (%v) should collapse vs SW (%v)", consRW, consSW)
	}
	if entRW*2 < entSW {
		t.Errorf("Enterprise2012 RW (%v) should track SW (%v)", entRW, entSW)
	}
}

func TestAllRunnersListed(t *testing.T) {
	if len(All) != 24 {
		t.Fatalf("All has %d runners, want 24", len(All))
	}
	seen := map[string]bool{}
	for _, r := range All {
		if seen[r.ID] {
			t.Fatalf("duplicate runner %s", r.ID)
		}
		seen[r.ID] = true
		if r.Run == nil {
			t.Fatalf("runner %s has no function", r.ID)
		}
	}
}

// committedQuick loads the headlines of the committed quick-scale
// capture, keyed by experiment ID.
func committedQuick(t *testing.T) map[string]map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_QUICK.json")
	if err != nil {
		t.Fatal(err)
	}
	var records []struct {
		ID       string             `json:"id"`
		Headline map[string]float64 `json:"headline"`
	}
	if err := json.Unmarshal(raw, &records); err != nil {
		t.Fatalf("BENCH_QUICK.json: %v", err)
	}
	byID := make(map[string]map[string]float64, len(records))
	for _, r := range records {
		byID[r.ID] = r.Headline
	}
	return byID
}

// TestEveryExperimentHeadlines runs the whole index at quick scale and
// requires each runner to return machine-readable headline metrics with
// finite values — the contract deathbench -json captures per run — that
// equal the committed BENCH_QUICK.json exactly (the comparison
// scripts/benchdiff makes in CI: virtual time is deterministic, so a PR
// that moves a number re-captures the file and says why). Every other
// experiment that runs in under 0.4 s is then run a second time and
// must reproduce its headline exactly: reruns are identical (the fabric
// experiments E18 and E20–E24 are rerun, more strictly, by
// TestRebaselinedExperimentsAreDeterministic).
func TestEveryExperimentHeadlines(t *testing.T) {
	committed := committedQuick(t)
	rerun := []string{"E1", "E2", "E3", "E4", "E5", "E7", "E8", "E9", "E10", "E11",
		"E13", "E15"}
	for _, r := range All {
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			res := quick(t, r.ID)
			if slices.Contains(rerun, r.ID) {
				again, err := r.Run(Quick)
				if err != nil {
					t.Fatal(err)
				}
				if !maps.Equal(res.Headline, again.Headline) {
					t.Errorf("%s rerun moved its headline:\n  first  %v\n  second %v", r.ID, res.Headline, again.Headline)
				}
			}
			if len(res.Headline) == 0 {
				t.Fatalf("%s returned no headline metrics", r.ID)
			}
			want := committed[r.ID]
			for k, v := range res.Headline {
				if v != v || v > 1e18 || v < -1e18 {
					t.Errorf("%s headline %q = %v is not a finite number", r.ID, k, v)
				}
				if w, ok := want[k]; !ok {
					t.Errorf("%s %s: (new) -> %v: not in BENCH_QUICK.json", r.ID, k, v)
				} else if w != v {
					t.Errorf("%s %s: %v -> %v: moved from BENCH_QUICK.json", r.ID, k, w, v)
				}
			}
			for k, w := range want {
				if _, ok := res.Headline[k]; !ok {
					t.Errorf("%s %s: %v -> (gone): in BENCH_QUICK.json only", r.ID, k, w)
				}
			}
			if res.Finding == "" {
				t.Errorf("%s returned no finding", r.ID)
			}
		})
	}
}

func TestE20SpanAccountingCloses(t *testing.T) {
	r := quick(t, "E20")
	// The acceptance bar: span-measured latency matches client-measured
	// latency within 5% at p50 and p99 on every stack×shard
	// configuration, with no leaked or over-counted spans (that tracing
	// is free is TestTelemetryChargesNoVirtualTime's).
	if got := r.Headline["closure_err_p50_max_pct"]; got > 5 {
		t.Errorf("worst p50 closure error %.2f%% exceeds 5%%", got)
	}
	if got := r.Headline["closure_err_p99_max_pct"]; got > 5 {
		t.Errorf("worst p99 closure error %.2f%% exceeds 5%%", got)
	}
	if got := r.Headline["closed_configs"]; got != 9 {
		t.Errorf("span accounting closed on %v of 9 configurations", got)
	}
	if got := r.Headline["span_leaks"]; got != 0 {
		t.Errorf("%v spans leaked open", got)
	}
	if got := r.Headline["span_overruns"]; got != 0 {
		t.Errorf("%v spans over-counted their life", got)
	}
	if len(r.Tables) != 2 {
		t.Fatalf("tables = %d, want attribution + breakdown", len(r.Tables))
	}
	if rows := r.Tables[0].Rows(); rows != 9 {
		t.Fatalf("attribution rows = %d, want 3 stacks x 3 shard counts", rows)
	}
	// The stage shares of the showcase p99 must be real percentages.
	if got := r.Headline["mq16_sched_share_pct"] + r.Headline["mq16_device_share_pct"]; got <= 0 || got > 100 {
		t.Errorf("sched+device share of span time = %v%%, want in (0, 100]", got)
	}
	// The unified registry snapshot rides along for deathbench -obs.
	if r.Obs == nil {
		t.Fatal("E20 returned no registry snapshot")
	}
	for _, src := range []string{"shard_stats", "shard_latencies", "gc_coord", "trace"} {
		if _, ok := r.Obs[src]; !ok {
			t.Errorf("registry snapshot missing source %q", src)
		}
	}
}

func TestE21MonitorDetectsDriftWithoutCost(t *testing.T) {
	r := quick(t, "E21")
	// The acceptance bar: the drift watch converts injected mid-window
	// aging into an alert within the post-aging half of the window (20
	// sampling ticks at quick scale) on every stack, and the unaged
	// baseline never false-alarms (that monitoring costs nothing is
	// TestTelemetryChargesNoVirtualTime's).
	for _, mode := range []string{"SingleQueue", "MultiQueue", "Direct"} {
		d := r.Headline["detect_ticks_"+mode]
		if d < 1 || d > 20 {
			t.Errorf("%s: drift detected in %v ticks, want within (0, 20]", mode, d)
		}
	}
	if got := r.Headline["false_drift_alerts_unaged"]; got != 0 {
		t.Errorf("%v false drift alerts on unaged baselines", got)
	}
	if len(r.Tables) != 2 {
		t.Fatalf("tables = %d, want comparison + event ledger", len(r.Tables))
	}
	if rows := r.Tables[0].Rows(); rows != 3 {
		t.Fatalf("comparison rows = %d, want one per stack mode", rows)
	}
	// The series dump rides along for deathbench -series, and must hold
	// the core fabric and GC rings the golden schema pins.
	if r.Series == nil {
		t.Fatal("E21 returned no series dump")
	}
	have := map[string]bool{}
	for _, s := range r.Series.Series {
		have[s.Name] = true
	}
	for _, want := range []string{"fabric.served", "fabric.rejected", "gc.floor_hits",
		"gc.min_headroom_pages", "class.latency.missed", "dev0.svc_write_us"} {
		if !have[want] {
			t.Errorf("series dump missing %q", want)
		}
	}
	// The monitor snapshot joins the unified registry export.
	if r.Obs == nil {
		t.Fatal("E21 returned no registry snapshot")
	}
	for _, src := range []string{"series", "monitor"} {
		if _, ok := r.Obs[src]; !ok {
			t.Errorf("registry snapshot missing source %q", src)
		}
	}
}

func TestResultString(t *testing.T) {
	r := quick(t, "E1")
	out := r.String()
	for _, want := range []string{"E1", "paper claim", "measured:"} {
		if !strings.Contains(out, want) {
			t.Errorf("result output missing %q", want)
		}
	}
}

func TestE15SchedulerProtectsLatencyTenant(t *testing.T) {
	r := quick(t, "E15")
	if len(r.Tables) != 3 {
		t.Fatalf("tables = %d, want comparison + two per-tenant histograms", len(r.Tables))
	}
	tb := r.Tables[0]
	if tb.Rows() != 9 {
		t.Fatalf("comparison rows = %d, want 3 stacks x 3 neighbor counts", tb.Rows())
	}
	for row := 0; row < tb.Rows(); row++ {
		neighbors := cellFloat(t, tb.Cell(row, 1))
		if neighbors < 4 {
			continue
		}
		fifoP99 := cellFloat(t, tb.Cell(row, 3))
		schedP99 := cellFloat(t, tb.Cell(row, 5))
		if schedP99 >= fifoP99 {
			t.Errorf("%s with %v neighbors: sched p99 %v must beat fifo p99 %v",
				tb.Cell(row, 0), neighbors, schedP99, fifoP99)
		}
	}
	// The per-tenant histogram tables must carry both tenant rows.
	for _, ht := range r.Tables[1:] {
		if ht.Rows() != 2 {
			t.Fatalf("per-tenant table has %d rows, want ls-reader + noisy", ht.Rows())
		}
	}
}

func TestE16AdmissionControlsOverload(t *testing.T) {
	r := quick(t, "E16")
	if len(r.Tables) != 4 {
		t.Fatalf("tables = %d, want comparison + two shard ledgers + tenant latencies", len(r.Tables))
	}
	tb := r.Tables[0]
	if tb.Rows() != 18 {
		t.Fatalf("comparison rows = %d, want 2 mixes x 3 stacks x 3 shard counts", tb.Rows())
	}
	for row := 0; row < tb.Rows(); row++ {
		label := tb.Cell(row, 0) + "/" + tb.Cell(row, 1)
		if cellFloat(t, tb.Cell(row, 2)) != 16 {
			// Below saturation sharding, admission's tail win is large and
			// stable on the scan-dominated mix: the bounded queue keeps the
			// point reader from sitting behind a wall of admitted scans.
			if tb.Cell(row, 0) == "ScanHeavy" {
				p99Off, p99On := cellFloat(t, tb.Cell(row, 5)), cellFloat(t, tb.Cell(row, 6))
				if p99On >= p99Off {
					t.Errorf("%s/%s shards: admission did not lower ls p99 (%v -> %v µs)",
						label, tb.Cell(row, 2), p99Off, p99On)
				}
			}
			continue
		}
		// The acceptance bar: under the 16-shard overload mix, admission
		// control must reject (not silently backlog), lower the served
		// deadline-miss rate, and bound the per-shard queue.
		if rej := cellFloat(t, tb.Cell(row, 9)); rej <= 0 {
			t.Errorf("%s: no admission rejects under 16-shard overload", label)
		}
		missOff := cellFloat(t, tb.Cell(row, 7))
		missOn := cellFloat(t, tb.Cell(row, 8))
		if missOn >= missOff {
			t.Errorf("%s: miss rate with admission (%v%%) not below without (%v%%)", label, missOn, missOff)
		}
		maxqOff := cellFloat(t, tb.Cell(row, 10))
		maxqOn := cellFloat(t, tb.Cell(row, 11))
		if maxqOn > 12 {
			t.Errorf("%s: admission queue high-water %v exceeds the limit 12", label, maxqOn)
		}
		if maxqOff <= maxqOn {
			t.Errorf("%s: unbounded backlog (%v) not above bounded (%v)", label, maxqOff, maxqOn)
		}
		// At 16 shards the served tail must stay in the same regime (the
		// SLO win is the miss rate above; this guards against admission
		// making the tail meaningfully worse).
		if p99Off, p99On := cellFloat(t, tb.Cell(row, 5)), cellFloat(t, tb.Cell(row, 6)); p99On > 1.25*p99Off {
			t.Errorf("%s: admission inflated the served ls p99 (%v -> %v µs)", label, p99Off, p99On)
		}
	}
	// The per-shard ledgers carry one row per shard.
	for _, ledger := range r.Tables[1:3] {
		if ledger.Rows() != 16 {
			t.Fatalf("shard ledger has %d rows, want 16", ledger.Rows())
		}
	}
}

func TestE17CoordinationImprovesTail(t *testing.T) {
	r := quick(t, "E17")
	if len(r.Tables) != 4 {
		t.Fatalf("tables = %d, want comparison + ledger + two per-tenant histograms", len(r.Tables))
	}
	tb := r.Tables[0]
	if tb.Rows() != 9 {
		t.Fatalf("comparison rows = %d, want 3 stacks x 3 shard counts", tb.Rows())
	}
	improved := false
	for row := 0; row < tb.Rows(); row++ {
		label := tb.Cell(row, 0)
		// Coordination leases must flow on every coordinated run.
		if defers := cellFloat(t, tb.Cell(row, 8)); defers <= 0 {
			t.Errorf("%s/%s: no deferral sessions granted", label, tb.Cell(row, 1))
		}
		if cellFloat(t, tb.Cell(row, 1)) != 16 {
			continue
		}
		// The acceptance bar: at 16 shards the aged devices collect
		// inside the window, the deferral mechanism must visibly engage
		// (headroom was consulted, and never below zero), and the
		// latency tenant's p99 must not get worse on any stack.
		if mh := cellFloat(t, tb.Cell(row, 11)); mh < 0 {
			t.Errorf("%s/16: deferral never consulted (min headroom %v)", label, mh)
		}
		p99Off, p99On := cellFloat(t, tb.Cell(row, 4)), cellFloat(t, tb.Cell(row, 5))
		if p99On > p99Off {
			t.Errorf("%s/16: coordination worsened ls p99 (%v -> %v µs)", label, p99Off, p99On)
		}
		if p99On < p99Off {
			improved = true
		}
	}
	if !improved {
		t.Error("no 16-shard stack mode improved ls p99 with coordination on")
	}
}

// checkE18Rows applies the bars E18 keeps at every scale to its
// comparison table: early drops flow and billing calibrates away from
// parity on every row, the deadline-miss rate falls on at least 7 of 9
// rows, and no row's adaptive miss rate sits more than 6 points above
// the static one.
func checkE18Rows(t *testing.T, r *Result) {
	t.Helper()
	if len(r.Tables) != 3 {
		t.Fatalf("tables = %d, want comparison + two per-tenant histograms", len(r.Tables))
	}
	tb := r.Tables[0]
	if tb.Rows() != 9 {
		t.Fatalf("comparison rows = %d, want 3 stacks x 3 shard counts", tb.Rows())
	}
	missImproved := 0
	for row := 0; row < tb.Rows(); row++ {
		label := tb.Cell(row, 0) + "/" + tb.Cell(row, 1)
		// The feedback plane must engage everywhere: early drops flow,
		// billing calibrates away from parity.
		if edrops := cellFloat(t, tb.Cell(row, 8)); edrops <= 0 {
			t.Errorf("%s: adaptive admission never early-dropped", label)
		}
		if cal := cellFloat(t, tb.Cell(row, 9)); cal <= 1 {
			t.Errorf("%s: calibrated write:read ratio %v never left parity", label, cal)
		}
		// The adaptive plane exists to turn late yeses into early nos:
		// the miss rate must drop on the clear majority of
		// configurations, and a row may regress only within noise.
		missSt := cellFloat(t, tb.Cell(row, 6))
		missAd := cellFloat(t, tb.Cell(row, 7))
		if missAd < missSt {
			missImproved++
		} else if missAd > missSt+6 {
			t.Errorf("%s: adaptive miss rate %v%% well above static %v%%", label, missAd, missSt)
		}
	}
	if missImproved < 7 {
		t.Errorf("miss rate improved on only %d of 9 configurations", missImproved)
	}
}

func TestE18AdaptivePlaneTracksAgingDevices(t *testing.T) {
	r := quick(t, "E18")
	checkE18Rows(t, r)
	tb := r.Tables[0]
	for row := 0; row < tb.Rows(); row++ {
		// At 1 shard (clean signal, no cross-shard noise) the adaptive
		// plane must hold the claim E18 prints: the served tail at or
		// below the static plane's, with the 5% quick-scale allowance the
		// miss-rate rows get. The bar used to be "improves outright", and
		// it stood on the static plane being far past its knee: a drain
		// now commits its puts as one group (PR 24), so the static
		// SingleQueue/1 tail fell 17.8 -> 6.0 ms and E18's typed-in load
		// is barely an overload there (adaptive 6.16 ms). Re-measuring
		// E18's operating point is ROADMAP item 7.
		if cellFloat(t, tb.Cell(row, 1)) == 1 {
			label := tb.Cell(row, 0) + "/1"
			p99St := cellFloat(t, tb.Cell(row, 4))
			p99Ad := cellFloat(t, tb.Cell(row, 5))
			if p99Ad > 1.05*p99St {
				t.Errorf("%s: adaptive ls p99 %vµs above static %vµs", label, p99Ad, p99St)
			}
		}
	}
	// The calibration bar is gated at full scale only
	// (TestE18FullScaleHoldsTheTail). At quick scale the settled-truth
	// span is a 10 ms quarter holding a handful of writes, so the "true"
	// write:read ratio it measures is noise: Direct/16 reads 1.2 there
	// against 7.2 at full scale, and the worst 16-shard error reads 66%.
	if got := r.Headline["stacks_at_or_better_16"]; got < 1 {
		t.Errorf("no stack held the static p99 at 16 shards (%v)", got)
	}
}

// TestE18FullScaleHoldsTheTail gates E18's claim at the scale it is made
// (about 4 s of simulation): at 16 shards the adaptive plane holds the
// static latency-class p99 on at least 2 of 3 stacks, calibrated billing
// tracks the device's true post-aging write:read ratio within 25% on
// every stack, and the per-row miss bars hold.
func TestE18FullScaleHoldsTheTail(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale E18 run")
	}
	t.Parallel()
	r, err := E18AdaptiveControlPlane(Full)
	if err != nil {
		t.Fatal(err)
	}
	checkE18Rows(t, r)
	if got := r.Headline["stacks_at_or_better_16"]; got < 2 {
		t.Errorf("adaptive plane held the static 16-shard p99 on %v of 3 stacks, want at least 2", got)
	}
	if got := r.Headline["worst_cal_ratio_err_16"]; got > 0.25 {
		t.Errorf("worst 16-shard calibration error %.0f%% exceeds 25%%", 100*got)
	}
}

// TestRebaselinedExperimentsAreDeterministic runs the fabric experiments
// whose telemetry or baselines were rewired — E18 and E20–E24 — a second
// time in this process and requires byte-identical output: headline,
// finding, every rendered table, and the JSON of the registry snapshot,
// series dump and resource profile deathbench writes.
func TestRebaselinedExperimentsAreDeterministic(t *testing.T) {
	for _, id := range []string{"E18", "E20", "E21", "E22", "E23", "E24"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			first := quick(t, id)
			again, err := quickRuns[id].run(Quick)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(first.Headline, again.Headline) {
				t.Errorf("headline moved:\n  first  %v\n  second %v", first.Headline, again.Headline)
			}
			if first.Finding != again.Finding {
				t.Errorf("finding moved:\n  first  %s\n  second %s", first.Finding, again.Finding)
			}
			if len(first.Tables) != len(again.Tables) {
				t.Fatalf("%d tables, then %d", len(first.Tables), len(again.Tables))
			}
			for i, tb := range first.Tables {
				if a, b := tb.String(), again.Tables[i].String(); a != b {
					t.Errorf("table %d moved:\n%s\nthen\n%s", i, a, b)
				}
			}
			for _, art := range []struct {
				name        string
				first, then any
			}{
				{"obs", first.Obs, again.Obs},
				{"series", first.Series, again.Series},
				{"profile", first.Profile, again.Profile},
			} {
				a, errA := json.Marshal(art.first)
				b, errB := json.Marshal(art.then)
				if errA != nil || errB != nil {
					t.Fatalf("%s JSON: %v, %v", art.name, errA, errB)
				}
				if !bytes.Equal(a, b) {
					t.Errorf("%s JSON moved (%d bytes, then %d)", art.name, len(a), len(b))
				}
			}
		})
	}
}

func TestE19ReplicatedPlacementSteersAndMigrates(t *testing.T) {
	r := quick(t, "E19")
	if len(r.Tables) != 5 {
		t.Fatalf("tables = %d, want comparison + placement ledger + two per-tenant histograms + migration ledger", len(r.Tables))
	}
	tb := r.Tables[0]
	if tb.Rows() != 9 {
		t.Fatalf("comparison rows = %d, want 3 stacks x 3 shard counts", tb.Rows())
	}
	better16 := 0
	for row := 0; row < tb.Rows(); row++ {
		label := tb.Cell(row, 0)
		shards := cellFloat(t, tb.Cell(row, 1))
		// Steering must engage wherever there is a choice to make and GC
		// to avoid (multi-shard rows churn enough to keep GC cycling).
		if shards > 1 {
			if steered := cellFloat(t, tb.Cell(row, 8)); steered <= 0 {
				t.Errorf("%s/%v: no reads steered", label, shards)
			}
			if avoided := cellFloat(t, tb.Cell(row, 9)); avoided <= 0 {
				t.Errorf("%s/%v: no reads steered off a collecting device", label, shards)
			}
		}
		if shards != 16 {
			continue
		}
		p99Single := cellFloat(t, tb.Cell(row, 4))
		p99Repl := cellFloat(t, tb.Cell(row, 5))
		if p99Repl < p99Single {
			better16++
		}
	}
	// The acceptance bar: GC-steered replicated reads beat single
	// placement's latency-class p99 at 16 shards on at least 2 of the
	// 3 stack modes.
	if better16 < 2 {
		t.Errorf("replicated p99 beat single placement on only %d of 3 stacks at 16 shards", better16)
	}
	// And the live migration completed under load, triggered by the
	// drift alarm, with a clean read-back: zero lost, zero stale.
	if r.Headline["drift_trips"] < 1 {
		t.Error("drift alarm never tripped")
	}
	if r.Headline["migrations"] < 1 {
		t.Error("no live migration completed")
	}
	if r.Headline["replicas_on_spare"] < 1 {
		t.Error("no replica landed on the spare device")
	}
	if lost := r.Headline["lost_acked_writes"]; lost != 0 {
		t.Errorf("%v acknowledged writes lost across the migration", lost)
	}
	if stale := r.Headline["stale_acked_writes"]; stale != 0 {
		t.Errorf("%v acknowledged writes stale across the migration", stale)
	}
}

// TestE19ReportsMissesWhereTheTailIsLate pins the miss % columns to the
// measurement window: a latency-class p99 past the 2 ms deadline means
// at least 1% of served point reads were late, so the same run's
// deadline-miss rate cannot print as zero (it did while the counters
// were snapshotted at window start).
func TestE19ReportsMissesWhereTheTailIsLate(t *testing.T) {
	tb := quick(t, "E19").Tables[0]
	const deadlineUs = 2000
	for row := 0; row < tb.Rows(); row++ {
		label := tb.Cell(row, 0) + "/" + tb.Cell(row, 1)
		// Columns 4/5 are ls p99 sgl/rep (µs), 6/7 miss% sgl/rep.
		for i, placement := range []string{"sgl", "rep"} {
			p99, miss := cellFloat(t, tb.Cell(row, 4+i)), cellFloat(t, tb.Cell(row, 6+i))
			if p99 > deadlineUs && miss <= 0 {
				t.Errorf("%s: ls p99 %s %vµs is past the %dµs deadline but miss%% %s = %v",
					label, placement, p99, deadlineUs, placement, miss)
			}
		}
	}
}

// e23Before holds E23's quick-scale 16-shard headlines before the log
// writer pipelined commits (BENCH_QUICK.json at PR 24): batch-of-1 and
// batch-of-8 ops/s and batch-of-1 CPU ns/op per stack.
var e23Before = map[string]struct{ ops1, ops8, cpu1 float64 }{
	"SingleQueue": {10000, 31800, 12512},
	"MultiQueue":  {10200, 31850, 10941.176470588236},
	"Direct":      {10150, 31550, 2183.2512315270938},
}

func TestE23RingPathWinsSaturated(t *testing.T) {
	r := quick(t, "E23")
	// The acceptance bar, on all 3 stacks at 16 shards: the pipelined
	// log gives the batch of one what group commit used to buy only a
	// batch — at least 3x its ops/s before and at most 0.6x its CPU
	// ns/op — and still lifts the batch of 8 at least 1.15x; with the
	// E20 span invariant exact and admission still biting
	// (E23Throughput itself errors on leaks/overruns/no-rejects, so
	// those headline zeros are double bookkeeping). It replaces two
	// bars the pipelined log overtook: "the batch of 8 beats the batch
	// of 1 by at least 1.8x in ops/s" and "... and wins both ops/s and
	// CPU ns/op on 3 of 3 stacks" (batch8_wins_16_of_3, now 1). With
	// the sync grouped by the writer whatever the drain size, the two
	// drains cost within 5 % CPU ns/op of each other either way, so
	// E23's claim no longer says a drain of 8 wins CPU ns/op; the count
	// is still reported in the finding.
	for mode, before := range e23Before {
		b1 := r.Headline["ops_per_sec_batch1_"+mode+"_16"]
		b8 := r.Headline["ops_per_sec_batch8_"+mode+"_16"]
		cpu1 := r.Headline["cpu_ns_per_op_batch1_"+mode+"_16"]
		if b1 < 3*before.ops1 {
			t.Errorf("%s: 16-shard batch-of-1 ops/s %v, want at least 3x the %v before", mode, b1, before.ops1)
		}
		if b8 < 1.15*before.ops8 {
			t.Errorf("%s: 16-shard batch-of-8 ops/s %v, want at least 1.15x the %v before", mode, b8, before.ops8)
		}
		if cpu1 <= 0 || cpu1 > 0.6*before.cpu1 {
			t.Errorf("%s: 16-shard batch-of-1 CPU %v ns/op, want at most 0.6x the %v before", mode, cpu1, before.cpu1)
		}
	}
	if got := r.Headline["span_leaks"]; got != 0 {
		t.Errorf("%v spans leaked under batching", got)
	}
	if got := r.Headline["span_overruns"]; got != 0 {
		t.Errorf("%v span overruns under batching", got)
	}
	if got := r.Headline["min_rejects_16"]; got < 1 {
		t.Errorf("min 16-shard rejects %v, want admission still rejecting", got)
	}
	if len(r.Tables) != 1 {
		t.Fatalf("tables = %d, want the saturation sweep", len(r.Tables))
	}
	if rows := r.Tables[0].Rows(); rows != 9 {
		t.Fatalf("sweep rows = %d, want 3 stacks x 3 shard counts", rows)
	}
	// The live throughput series rides along from the sampled run.
	if r.Series == nil {
		t.Fatal("E23 returned no series dump")
	}
	found := false
	for _, s := range r.Series.Series {
		if s.Name == "fabric.throughput.ops_per_sec" {
			found = true
		}
	}
	if !found {
		t.Error("series dump missing fabric.throughput.ops_per_sec")
	}
}
