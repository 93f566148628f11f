package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, v := range []int64{10, 20, 30, 40} {
		h.Record(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.sum != 100 {
		t.Fatalf("sum = %d", h.sum)
	}
	if h.Mean() != 25 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 40 {
		t.Fatalf("Min/Max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 {
		t.Fatalf("Min = %d, want 0", h.Min())
	}
}

func TestHistogramQuantileExactSmall(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 10; v++ {
		h.Record(v)
	}
	// Small values are exact (one bucket each below subBuckets).
	if got := h.Quantile(0.5); got != 5 {
		t.Fatalf("median = %d, want 5", got)
	}
	if got := h.Quantile(1.0); got != 10 {
		t.Fatalf("p100 = %d, want 10", got)
	}
	if got := h.Quantile(0.0); got != 1 {
		t.Fatalf("p0 = %d, want 1", got)
	}
}

func TestHistogramQuantileApproxLarge(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 100000; v++ {
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := float64(h.Quantile(q))
		want := q * 100000
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("q%.2f = %v, want within 5%% of %v", q, got, want)
		}
	}
}

// Property: histogram quantile within bucket error of true quantile.
func TestPropertyHistogramQuantile(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r % 10_000_000)
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.5, 0.95, 1.0} {
			idx := int(math.Ceil(q*float64(len(vals)))) - 1
			if idx < 0 {
				idx = 0
			}
			truth := vals[idx]
			got := h.Quantile(q)
			// Bucketing gives the lower bound of the bucket holding the
			// truth: got <= truth and truth-got bounded by ~2/32 relative.
			if got > truth {
				return false
			}
			if truth > 64 && float64(truth-got) > 0.07*float64(truth) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1<<40 + 12345} {
		b := bucketOf(v)
		lo := bucketLow(b)
		if lo > v {
			t.Fatalf("bucketLow(%d)=%d exceeds value %d", b, lo, v)
		}
		if bucketOf(lo) != b {
			t.Fatalf("bucketOf(bucketLow(%d))=%d, want %d", b, bucketOf(lo), b)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Record(10)
	a.Record(20)
	b.Record(5)
	b.Record(100)
	a.Merge(&b)
	if a.Count() != 4 {
		t.Fatalf("Count = %d", a.Count())
	}
	if a.Min() != 5 || a.Max() != 100 {
		t.Fatalf("Min/Max = %d/%d", a.Min(), a.Max())
	}
	a.Merge(nil) // must not panic
}

func TestHistogramMergeIntoEmpty(t *testing.T) {
	var a, b Histogram
	b.Record(7)
	a.Merge(&b)
	if a.Count() != 1 || a.Min() != 7 || a.Max() != 7 {
		t.Fatal("merge into empty lost data")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear")
	}
}

// TestHistogramResetKeepsStorage: a reset histogram records into the
// buckets it already has without allocating, and reads exactly as a
// fresh histogram of the same samples does.
func TestHistogramResetKeepsStorage(t *testing.T) {
	// Round 0 records every value; each later round records another
	// two thirds of them, into buckets round 0 made.
	samples := func(round int64) []int64 {
		var vs []int64
		for i := int64(0); i < 500; i++ {
			if round == 0 || (i+round)%3 != 0 {
				vs = append(vs, i*7919%1_000_000)
			}
		}
		return vs
	}
	var h Histogram
	for _, v := range samples(0) {
		h.Record(v)
	}
	for round := int64(1); round <= 3; round++ {
		h.Reset()
		if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.P99() != 0 {
			t.Fatalf("round %d: a reset histogram reads n=%d min=%d max=%d p99=%d", round, h.Count(), h.Min(), h.Max(), h.P99())
		}
		var fresh Histogram
		vs := samples(round)
		for _, v := range vs {
			fresh.Record(v)
		}
		if allocs := testing.AllocsPerRun(1, func() {
			h.Reset()
			for _, v := range vs {
				h.Record(v)
			}
		}); allocs != 0 {
			t.Errorf("round %d: recording into a reset histogram allocated %.0f times, want 0", round, allocs)
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
			if got, want := h.Quantile(q), fresh.Quantile(q); got != want {
				t.Errorf("round %d: Quantile(%v) = %d after Reset, %d fresh", round, q, got, want)
			}
		}
		if got, want := h.Summary(), fresh.Summary(); got != want {
			t.Errorf("round %d: Summary after Reset %q, fresh %q", round, got, want)
		}
		if h.Min() != fresh.Min() || h.Mean() != fresh.Mean() || h.Variance() != fresh.Variance() {
			t.Errorf("round %d: min/mean/variance %d/%v/%v after Reset, %d/%v/%v fresh", round,
				h.Min(), h.Mean(), h.Variance(), fresh.Min(), fresh.Mean(), fresh.Variance())
		}
	}
}

func TestHistogramSummaryAndBar(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(int64(i * 1000))
	}
	if !strings.Contains(h.Summary(), "n=100") {
		t.Fatalf("Summary = %q", h.Summary())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Results", "pattern", "MB/s")
	tb.AddRow("SR", 250.0)
	tb.AddRow("RR", 248.5)
	out := tb.String()
	if !strings.Contains(out, "Results") || !strings.Contains(out, "pattern") {
		t.Fatalf("table output missing pieces:\n%s", out)
	}
	if !strings.Contains(out, "250.00") {
		t.Fatalf("float not formatted: %s", out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	if tb.Cell(0, 0) != "SR" || tb.Cell(1, 1) != "248.50" {
		t.Fatal("Cell accessor wrong")
	}
	if tb.Cell(5, 5) != "" {
		t.Fatal("out-of-range Cell should be empty")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(4096)
	c.Add(4096)
	if c.Ops != 2 || c.Bytes != 8192 {
		t.Fatalf("Counter = %+v", c)
	}
}

func TestGanttRendering(t *testing.T) {
	g := NewGantt(60)
	g.AddLane("channel", []GanttSpan{{Start: 0, End: 100, Label: "xfer"}, {Start: 200, End: 300, Label: "xfer"}})
	g.AddLane("chip0", []GanttSpan{{Start: 100, End: 700, Label: "prog"}})
	out := g.String()
	if !strings.Contains(out, "channel") || !strings.Contains(out, "chip0") {
		t.Fatalf("gantt missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "x=xfer") || !strings.Contains(out, "p=prog") {
		t.Fatalf("gantt missing legend:\n%s", out)
	}
	if len(g.lanes) != 2 {
		t.Fatalf("lanes = %d", len(g.lanes))
	}
}

func TestGanttEmpty(t *testing.T) {
	g := NewGantt(40)
	if g.String() != "(empty gantt)" {
		t.Fatal("empty gantt should render placeholder")
	}
	g.AddLane("idle", nil)
	if g.String() != "(empty gantt)" {
		t.Fatal("gantt with no intervals should render placeholder")
	}
}

func TestGanttTinySpanVisible(t *testing.T) {
	g := NewGantt(40)
	g.AddLane("c", []GanttSpan{{Start: 0, End: 1, Label: "a"}, {Start: 0, End: 1000000, Label: "b"}})
	out := g.String()
	if !strings.Contains(out, "a=a") {
		t.Fatalf("tiny span not rendered:\n%s", out)
	}
}

func TestTenantLatenciesRecordAndTable(t *testing.T) {
	tl := NewTenantLatencies()
	for i := 0; i < 100; i++ {
		tl.Record("a", int64(1000+i))
		tl.Record("b", int64(50000+i))
	}
	if got := tl.Tenants(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("tenant order %v", got)
	}
	if tl.Hist("a").Count() != 100 || tl.Hist("b").Count() != 100 {
		t.Fatal("sample counts wrong")
	}
	if tl.Hist("a").P99() >= tl.Hist("b").P50() {
		t.Fatal("tenant distributions not separated")
	}
	tbl := tl.Table("per-tenant latency")
	if tbl.Rows() != 2 {
		t.Fatalf("table rows = %d, want 2", tbl.Rows())
	}
	if tbl.Cell(0, 0) != "a" || tbl.Cell(1, 0) != "b" {
		t.Fatal("table tenant column wrong")
	}
}

func TestTenantLatenciesMergeAndReset(t *testing.T) {
	a := NewTenantLatencies()
	a.Record("x", 10)
	a.Record("x", 20)
	a.Record("y", 30)
	if a.Hist("x").Count() != 2 || a.Hist("y").Count() != 1 {
		t.Fatal("record lost samples")
	}
	a.Reset()
	if a.Hist("x").Count() != 0 || len(a.Tenants()) != 2 {
		t.Fatal("reset must clear samples but keep tenants")
	}
}

func TestShardStats(t *testing.T) {
	s := NewShardStats()
	a := s.Shard("shard0")
	a.Submitted, a.Admitted, a.Rejected, a.Served, a.DeadlineMissed, a.MaxQueue = 10, 8, 2, 8, 4, 5
	b := s.Shard("shard1")
	b.Submitted, b.Admitted, b.Served, b.MaxQueue = 4, 4, 4, 9
	if got := s.Shards(); len(got) != 2 || got[0] != "shard0" || got[1] != "shard1" {
		t.Fatalf("shard order %v", got)
	}
	if s.Shard("shard0") != a {
		t.Fatal("lookup did not return the same counters")
	}
	tot := s.Totals()
	if tot.Submitted != 14 || tot.Rejected != 2 || tot.Served != 12 {
		t.Fatalf("totals %+v", tot)
	}
	if tot.MaxQueue != 9 {
		t.Fatalf("totals MaxQueue = %d, want max across shards", tot.MaxQueue)
	}
	if r := a.RejectRate(); r != 0.2 {
		t.Fatalf("reject rate %v, want 0.2", r)
	}
	if m := a.MissRate(); m != 0.5 {
		t.Fatalf("miss rate %v, want 0.5", m)
	}
	var zero ShardCounters
	if zero.RejectRate() != 0 || zero.MissRate() != 0 {
		t.Fatal("zero counters must not divide by zero")
	}
	s.Reset()
	if s.Totals().Submitted != 0 || len(s.Shards()) != 2 {
		t.Fatal("reset must zero counters but keep the shard set")
	}
}
