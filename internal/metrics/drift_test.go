package metrics

import "testing"

func TestDriftAlarmTripsOnSustainedSlowdown(t *testing.T) {
	e := NewEstimator(1*ms, 4, 0.2)
	c := e.Class("read")
	a := c.DriftAlarm(1.5, 16)

	// Cold checks: nothing recorded, nothing armed.
	if a.Check(0) || a.drift.seen != 0 {
		t.Fatal("cold alarm must neither arm nor trip")
	}
	// A healthy window arms the baseline.
	for i := int64(0); i < 32; i++ {
		c.Record(i*1000, 100_000)
	}
	if a.Check(32_000) {
		t.Fatal("healthy window must not trip")
	}
	if a.drift.seen != 1 || a.drift.sum < 90_000 || a.drift.sum > 110_000 {
		t.Fatalf("baseline = %v, want ~100000", a.drift.sum)
	}
	// Same service level: no trip, ratio near 1.
	for i := int64(0); i < 32; i++ {
		c.Record(ms+i*1000, 100_000)
	}
	if a.Check(ms + 32_000) {
		t.Fatal("steady service must not trip")
	}
	if r := a.drift.Ratio(); r < 0.9 || r > 1.1 {
		t.Fatalf("steady ratio = %v, want ~1", r)
	}
	// The device ages: 2.5× slower. Let the old windows roll out, then
	// the trend ratio crosses the threshold and the alarm latches.
	for w := int64(5); w <= 8; w++ {
		for i := int64(0); i < 32; i++ {
			c.Record(w*ms+i*1000, 250_000)
		}
	}
	if !a.Check(8*ms + 32_000) {
		t.Fatalf("2.5x slowdown must trip a 1.5x alarm (ratio %v)", a.drift.Ratio())
	}
	if r := a.drift.Ratio(); r < 2.0 || r > 3.0 {
		t.Fatalf("trip ratio = %v, want ~2.5", r)
	}
	if !a.Check(9 * ms) {
		t.Fatal("alarm must latch once tripped")
	}
}

func TestDriftAlarmDoesNotTripBelowThresholdOrOnColdWindow(t *testing.T) {
	e := NewEstimator(1*ms, 4, 0.2)
	c := e.Class("read")
	a := c.DriftAlarm(2.0, 16)
	for i := int64(0); i < 32; i++ {
		c.Record(i*1000, 100_000)
	}
	a.Check(32_000) // arms
	// 1.5× drift under a 2× threshold: no trip, ratio visible.
	for w := int64(5); w <= 8; w++ {
		for i := int64(0); i < 32; i++ {
			c.Record(w*ms+i*1000, 150_000)
		}
	}
	if a.Check(8*ms + 32_000) {
		t.Fatalf("1.5x drift must not trip a 2x alarm (ratio %v)", a.drift.Ratio())
	}
	if r := a.drift.Ratio(); r < 1.3 || r > 1.7 {
		t.Fatalf("ratio = %v, want ~1.5", r)
	}
	// A long silence empties the window; a handful of slow stragglers
	// must not trip the alarm while the window is cold.
	c.Observe(100 * ms)
	for i := int64(0); i < 8; i++ {
		c.Record(100*ms+i*1000, 400_000)
	}
	if a.Check(100*ms + 8_000) {
		t.Fatal("cold window (below minSamples) must not trip")
	}
}

// TestDriftStateMachine drives the state machine both detectors share
// with value sequences: the alarm's shape (n = 1, confirm = 1) and the
// monitor watch's (n = 4, confirm = 2).
func TestDriftStateMachine(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, confirm int
		values     []float64
		trips      []bool // Observe's result per value
		ratio      float64
	}{
		{"n=1 arms on the first value and trips at once", 1, 1,
			[]float64{100, 140, 150, 100},
			[]bool{false, false, true, true}, 1.5},
		{"n=4 baselines on the mean of four values", 4, 1,
			[]float64{100, 200, 100, 200, 200, 240},
			[]bool{false, false, false, false, false, true}, 240.0 / 150},
		{"confirm=2 needs consecutive ratios at threshold", 4, 2,
			[]float64{100, 100, 100, 100, 200, 100, 200, 200},
			[]bool{false, false, false, false, false, false, false, true}, 2},
		{"non-positive values neither arm nor trip", 1, 1,
			[]float64{-5, 100, -1000, 150},
			[]bool{false, false, false, true}, 1.5},
		{"a non-positive value does not break a run", 4, 2,
			[]float64{100, 100, 100, 100, 200, -1, 200},
			[]bool{false, false, false, false, false, false, true}, 2},
	} {
		d := NewDrift(1.5, tc.n, tc.confirm)
		for i, v := range tc.values {
			if got := d.Observe(v); got != tc.trips[i] {
				t.Fatalf("%s: value %d (%v): tripped %v, want %v", tc.name, i, v, got, tc.trips[i])
			}
		}
		if d.Ratio() != tc.ratio {
			t.Fatalf("%s: ratio %v, want %v", tc.name, d.Ratio(), tc.ratio)
		}
	}
}
