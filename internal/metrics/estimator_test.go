package metrics

import (
	"math"
	"sort"
	"testing"
)

const ms = int64(1_000_000) // ns per millisecond

func TestEstimatorWindowRollOver(t *testing.T) {
	e := NewEstimator(1*ms, 4, 0.2)
	c := e.Class("read")
	// Fill the first sub-window with slow samples.
	for i := int64(0); i < 100; i++ {
		c.Record(i*1000, 80_000)
	}
	if got := c.Quantile(0.5); got < 70_000 {
		t.Fatalf("p50 = %d, want ~80000", got)
	}
	// Three more sub-windows of fast samples: the slow window is still
	// inside the ring, so the tail remembers it.
	for w := int64(1); w <= 3; w++ {
		for i := int64(0); i < 100; i++ {
			c.Record(w*ms+i*1000, 10_000)
		}
	}
	if got := c.Quantile(0.99); got < 70_000 {
		t.Fatalf("p99 = %d, want the slow window still visible", got)
	}
	if got, want := c.WindowCount(), int64(400); got != want {
		t.Fatalf("WindowCount = %d, want %d", got, want)
	}
	// One more sub-window evicts the slow one: the whole window is fast.
	for i := int64(0); i < 100; i++ {
		c.Record(4*ms+i*1000, 10_000)
	}
	if got := c.Quantile(0.99); got > 20_000 {
		t.Fatalf("p99 = %d after roll-over, slow window should be forgotten", got)
	}
	if got, want := c.WindowCount(), int64(400); got != want {
		t.Fatalf("WindowCount after roll-over = %d, want %d", got, want)
	}
	if got, want := c.Count(), int64(500); got != want {
		t.Fatalf("lifetime Count = %d, want %d", got, want)
	}
}

func TestEstimatorLongGapDiscardsWindow(t *testing.T) {
	e := NewEstimator(1*ms, 4, 0.2)
	c := e.Class("read")
	for i := int64(0); i < 50; i++ {
		c.Record(i*1000, 50_000)
	}
	// Silence far longer than the whole ring, then Observe: everything
	// recorded before the gap must age out without a new sample.
	c.Observe(100 * ms)
	if got := c.WindowCount(); got != 0 {
		t.Fatalf("WindowCount after long gap = %d, want 0", got)
	}
	if got := c.Quantile(0.99); got != 0 {
		t.Fatalf("Quantile after long gap = %d, want 0", got)
	}
	// Lifetime stats and the EWMA survive the gap.
	if got := c.Count(); got != 50 {
		t.Fatalf("lifetime Count = %d, want 50", got)
	}
	if got := c.EWMA(); got == 0 {
		t.Fatal("EWMA should survive the window gap")
	}
}

func TestEstimatorEWMAConvergence(t *testing.T) {
	e := NewEstimator(1*ms, 4, 0.2)
	c := e.Class("write")
	// Seed at one level, then shift the true service time: the EWMA must
	// converge to the new level geometrically.
	for i := int64(0); i < 50; i++ {
		c.Record(i*1000, 100_000)
	}
	if got := c.EWMA(); math.Abs(got-100_000) > 1 {
		t.Fatalf("EWMA = %v, want 100000", got)
	}
	for i := int64(0); i < 50; i++ {
		c.Record(ms+i*1000, 400_000)
	}
	// After 50 samples at alpha 0.2, the residual of the old level is
	// (0.8)^50 ≈ 1e-5: effectively converged.
	if got := c.EWMA(); math.Abs(got-400_000) > 100 {
		t.Fatalf("EWMA = %v, want ~400000 after shift", got)
	}
	// Ratio of the two classes tracks their EWMA means.
	e.Record("read", 2*ms, 100_000)
	if got := e.EWMA("write") / e.EWMA("read"); math.Abs(got-4.0) > 0.01 {
		t.Fatalf("EWMA ratio = %v, want ~4", got)
	}
}

func TestEstimatorQuantileAccuracyVsExact(t *testing.T) {
	e := NewEstimator(10*ms, 4, 0.2)
	c := e.Class("read")
	// A deterministic spread of samples, all inside one sub-window.
	var samples []int64
	v := int64(1)
	for i := 0; i < 2000; i++ {
		v = (v*1103515245 + 12345) % 1_000_000
		if v < 0 {
			v = -v
		}
		samples = append(samples, v)
		c.Record(int64(i)*1000, v)
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		exact := sorted[idx]
		got := c.Quantile(q)
		// Histogram buckets bound relative error to ~1/subBuckets ≈ 3%;
		// allow 5% slack.
		if math.Abs(float64(got-exact)) > 0.05*float64(exact) {
			t.Fatalf("Quantile(%v) = %d, exact %d (>5%% off)", q, got, exact)
		}
	}
}

func TestEstimatorUnseededQueries(t *testing.T) {
	e := NewEstimator(0, 0, 0) // defaults
	if e.EWMA("nope") != 0 || e.Class("nope").Quantile(0.99) != 0 {
		t.Fatal("unseeded estimator should report zeros")
	}
	e.Record("a", 0, 100)
	if e.EWMA("b") != 0 {
		t.Fatal("EWMA of an unseeded class should be 0")
	}
	if got := e.window * int64(e.slots); got != 8_000_000 {
		t.Fatalf("default window span = %d, want 8ms", got)
	}
}
