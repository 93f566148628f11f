package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestSegmentMinSumIgnoresDisturbedPasses(t *testing.T) {
	clean := []int64{100, 120, 90, 110, 40}
	passes := make([][]int64, 5)
	for p := range passes {
		passes[p] = append([]int64(nil), clean...)
		// Every pass is disturbed somewhere else, some badly; no single
		// pass is clean, yet every segment is clean in at least one.
		passes[p][p] += int64(50 * (p + 1))
		passes[p][(p+2)%5] += 7
	}
	passes[1][2], passes[3][2] = clean[2], clean[2]
	passes[0][3], passes[4][1] = clean[3], clean[1]
	got := segmentMinSum(passes)
	var want int64
	for _, c := range clean {
		want += c
	}
	if got != want {
		t.Fatalf("segmentMinSum = %d, want the undisturbed total %d", got, want)
	}
	var best int64 = math.MaxInt64
	for _, p := range passes {
		if s := sum(p); s < best {
			best = s
		}
	}
	if best <= want {
		t.Fatalf("test is vacuous: the best whole pass (%d) is already clean", best)
	}
	if sp := passSpread(passes, got); sp <= 0 {
		t.Fatalf("passSpread = %v, want > 0 for disturbed passes", sp)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{15, 0.5}, {95, 0.5}, {99, 0.9}, {100, 0.9}, {150, 0.9}, {200, 0.95}, {500, 0.95}, {1000, 0.99},
		{5000, 0.99}, {10000, 0.999}, {50000, 0.999}, {100000, 0.9999}, {487493, 0.9999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
		sorted := make([]int64, c.n)
		for i := range sorted {
			sorted[i] = int64(i)
		}
		if q := supportedTail(c.n); q > 0.5 && int64(c.n-1)-pick(sorted, q) < tailMinBeyond {
			t.Errorf("supportedTail(%d) = %v leaves fewer than %d samples beyond it", c.n, q, tailMinBeyond)
		}
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if got := pick(sorted, 0.99); got != 990 {
		t.Errorf("pick(1..1000, 0.99) = %d, want 990", got)
	}
	if got := pick(sorted, 0.5); got != 500 {
		t.Errorf("pick(1..1000, 0.5) = %d, want 500", got)
	}
}

func TestQuartileSpreadMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11}
	want := (31.0 - 3.5) / 13.5
	if got := quartileSpread(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 140}, {130, 160}, {135, 150}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticking out", []interval{{50, 120}, {180, 260}}, 60},
		{"covering", []interval{{0, 300}}, 0},
		{"unsorted", []interval{{150, 170}, {110, 120}}, 70},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

const topOutput = `File: repro-bench
Type: cpu
Time: Sep 27, 2026 at 10:00am (UTC)
Duration: 2.41s, Total samples = 2s (82.99%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.50s 25.00% 25.00%      0.50s 25.00%  runtime.memmove
     0.40s 20.00% 45.00%      0.90s 45.00%  repro/internal/ftl.(*writeBuffer).admitWaiting
     0.30s 15.00% 60.00%      1.20s 60.00%  repro/internal/sim.(*Engine).Step
     200ms 10.00% 70.00%      0.20s 10.00%  runtime.mallocgc
     100ms  5.00% 75.00%      0.10s  5.00%  runtime.chanrecv
     100ms  5.00% 80.00%      0.10s  5.00%  repro/internal/nand.(*Chip).Read.func1 (inline)
     100ms  5.00% 85.00%      0.10s  5.00%  main.(*devLoad).issue
     100ms  5.00% 90.00%      0.10s  5.00%  repro/internal/core.(*BlockLog).Sync
     100ms  5.00% 95.00%      0.10s  5.00%  sort.insertionSort
      50ms  2.50% 97.50%      0.05s  2.50%  runtime.scanobject
      30ms  1.50% 99.00%      0.03s  1.50%  aeshashbody
      20ms  1.00%   100%      0.02s  1.00%  runtime.nanotime1
`

func TestParseTopFoldsIntoBuckets(t *testing.T) {
	shares, err := parseTop([]byte(topOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"runtime.memmove": 0.25, "ftl": 0.20, "sim": 0.15, "runtime.malloc_gc": 0.125,
		"runtime.sched_chan": 0.05, "nand": 0.05, "bench": 0.05, "core": 0.05, "std": 0.05,
		"runtime.map": 0.015, "runtime.other": 0.01,
	}
	var total float64
	for _, b := range selfBuckets {
		total += shares[b]
		if math.Abs(shares[b]-want[b]) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", b, shares[b], want[b])
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if _, err := parseTop([]byte("no table here")); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}

// smokeSize is each workload at about a fiftieth of its measured size,
// on the shrunken devices.
func smokeSize(w *workloadDef) sizing {
	sz := w.sizeFor(12.0/50, 5)
	sz.small = true
	return sz
}

func TestWorkloadsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			// run fails unless the second pass's virtual-clock fingerprint
			// equals the first's; a second run must reproduce both.
			a, err := run(w, 7, smokeSize(w), 2, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(w, 7, smokeSize(w), 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if fa, fb := a.passes[0].fingerprint(), b.passes[0].fingerprint(); fa != fb {
				t.Fatalf("second run differs on the virtual clock:\n%s\n%s", fa, fb)
			}
			c, err := run(w, 8, smokeSize(w), 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if a.passes[0].fingerprint() == c.passes[0].fingerprint() {
				t.Fatal("another seed gave the same run: inputs do not depend on the seed")
			}
			p := a.passes[0]
			if p.v.completed != p.v.attempted || p.v.attempted != int64(smokeSize(w).ops) {
				t.Fatalf("attempted %d, completed %d, want %d of each", p.v.attempted, p.v.completed, smokeSize(w).ops)
			}
			for _, m := range append(p.e2e, endToEndHost(a)...) {
				if m.value <= 0 || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v: end-to-end metrics are never zero", m.name, m.value)
				}
			}
		})
	}
}

func TestPeelWrapperMovesNothing(t *testing.T) {
	tr := newTracer()
	ms, table, err := peel(tr, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 8 {
		t.Errorf("peel has %d rungs, want 8", len(table))
	}
	got := map[string]float64{}
	for _, m := range ms {
		got[m.name] = m.value
	}
	// Unloaded, a block-layer mode's self time is at least its modelled
	// CPU cost: submit + complete (4+4 us), plus the 1.2 us lock on the
	// single queue, and 0.8 us + 0.8 us on the direct path.
	for name, floor := range map[string]float64{"blockdev.self_us_p50.sq": 9.2, "blockdev.self_us_p50.mq": 8, "blockdev.self_us_p50.direct": 1.6} {
		if got[name] < floor {
			t.Errorf("%s = %v us, below the modelled CPU cost %v us", name, got[name], floor)
		}
	}
	for _, s := range tr.spans {
		if s.VEnd < s.VStart || s.HEnd < s.HStart {
			t.Fatalf("span %d (%s) was never closed", s.ID, s.Name)
		}
		if s.Parent != 0 && tr.spans[s.Parent-1].Req != s.Req {
			t.Fatalf("span %d does not share its parent's request id", s.ID)
		}
	}
}

// benchmarkJSON mirrors the harness's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, bj.Workloads[i].Name, w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		e := bj.EndToEnd[i]
		if e.Name != s.name || e.Unit != s.unit || e.Better != s.better || e.Bound != s.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, e, s)
		}
	}
	if len(bj.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, a traced run reports %d", len(bj.PerLayer), len(perLayerSpecs))
	}
	for i, s := range perLayerSpecs {
		if l := bj.PerLayer[i]; l.Name != s.name || l.Unit != s.unit || l.Better != s.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, l, s)
		}
	}
}
