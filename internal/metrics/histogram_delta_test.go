package metrics

import (
	"math"
	"testing"
)

func TestHistogramVariance(t *testing.T) {
	var h Histogram
	if h.Variance() != 0 {
		t.Fatal("empty histogram has variance")
	}
	h.Record(1000)
	if h.Variance() != 0 {
		t.Fatal("single sample has variance")
	}
	h.Record(2000)
	h.Record(3000)
	// Population variance of {1000, 2000, 3000} = 2e6/3.
	want := 2e6 / 3
	if got := h.Variance(); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("variance = %v, want %v", got, want)
	}
	// Near-constant samples: cancellation must clamp at zero, never
	// go negative (stddev would be NaN).
	var c Histogram
	for i := 0; i < 1000; i++ {
		c.Record(1_000_000_007)
	}
	if got := c.Variance(); got < 0 {
		t.Fatalf("variance = %v, want >= 0", got)
	}
}

func TestHistogramClone(t *testing.T) {
	var nilH *Histogram
	if c := nilH.Clone(); c == nil || c.Count() != 0 {
		t.Fatal("nil clone not empty")
	}
	var h Histogram
	h.Record(100)
	h.Record(900)
	c := h.Clone()
	if c.Count() != 2 || c.sum != 1000 || c.Min() != 100 || c.Max() != 900 {
		t.Fatalf("clone stats = n%d sum%d min%d max%d", c.Count(), c.sum, c.Min(), c.Max())
	}
	// Independence both ways.
	h.Record(5000)
	c.Record(7)
	if c.Count() != 3 || c.Max() != 900 {
		t.Fatalf("clone saw the original's writes: n=%d max=%d", c.Count(), c.Max())
	}
	if h.Count() != 3 || h.Min() != 100 {
		t.Fatalf("original saw the clone's writes: n=%d min=%d", h.Count(), h.Min())
	}
}

func TestHistogramDeltaFrom(t *testing.T) {
	var h Histogram
	h.Record(1000)
	h.Record(2000)
	prev := h.Clone()

	// Empty interval: no new samples since prev.
	if d := h.DeltaFrom(prev); d.Count() != 0 {
		t.Fatalf("idle delta n = %d, want 0", d.Count())
	}

	h.Record(4000)
	h.Record(8000)
	d := h.DeltaFrom(prev)
	if d.Count() != 2 || d.sum != 12000 {
		t.Fatalf("delta n=%d sum=%d, want 2/12000", d.Count(), d.sum)
	}
	// Interval mean and variance come from exact subtraction.
	if got := d.Mean(); got != 6000 {
		t.Fatalf("delta mean = %v, want 6000", got)
	}
	wantVar := 4e6 // population variance of {4000, 8000}
	if got := d.Variance(); math.Abs(got-wantVar) > 1 {
		t.Fatalf("delta variance = %v, want %v", got, wantVar)
	}
	// Interval min/max: bucket-resolution approximations of 4000/8000 —
	// never the cumulative 1000.
	if d.Min() < 3000 || d.Min() > 4000 {
		t.Fatalf("delta min = %d, want ~4000", d.Min())
	}
	if d.Max() < 7000 || d.Max() > 8000 {
		t.Fatalf("delta max = %d, want ~8000", d.Max())
	}
	// The cumulative max moved during the interval, so it is exact.
	if d.Max() != 8000 {
		t.Fatalf("delta max = %d; cumulative max moved, so want exactly 8000", d.Max())
	}

	// A new cumulative minimum inside the interval is exact too.
	prev2 := h.Clone()
	h.Record(10)
	d2 := h.DeltaFrom(prev2)
	if d2.Count() != 1 || d2.Min() != 10 || d2.Max() != 10 {
		t.Fatalf("delta2 n=%d min=%d max=%d, want 1/10/10", d2.Count(), d2.Min(), d2.Max())
	}

	// Nil and empty prev mean "everything is new".
	if d := h.DeltaFrom(nil); d.Count() != h.Count() {
		t.Fatalf("delta from nil n = %d, want %d", d.Count(), h.Count())
	}
	if d := h.DeltaFrom(&Histogram{}); d.Count() != h.Count() {
		t.Fatalf("delta from empty n = %d, want %d", d.Count(), h.Count())
	}
	var nilH *Histogram
	if d := nilH.DeltaFrom(prev); d.Count() != 0 {
		t.Fatal("nil delta not empty")
	}

	// A reset-under-us cumulative (n regressed) yields empty, not
	// negative counts.
	var fresh Histogram
	fresh.Record(500)
	if d := fresh.DeltaFrom(prev); d.Count() != 0 {
		t.Fatalf("regressed delta n = %d, want 0", d.Count())
	}
}
