package ftl

import (
	"testing"

	"repro/internal/sim"
)

// eraseSpread reports min/max erase counts over the good blocks of a
// PageFTL.
func eraseSpread(f *PageFTL) (min, max int32) {
	min = 1 << 30
	for i := range f.blocks {
		bm := &f.blocks[i]
		if bm.state == blockBad {
			continue
		}
		if bm.eraseCount < min {
			min = bm.eraseCount
		}
		if bm.eraseCount > max {
			max = bm.eraseCount
		}
	}
	return min, max
}

// hotColdChurn writes a hot working set repeatedly while a cold region
// sits untouched — the pattern static wear leveling exists for.
func hotColdChurn(t *testing.T, cfg Config, rounds int) *PageFTL {
	t.Helper()
	eng, arr := tinyArray(t, 1, 1)
	f, err := NewPageFTL(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := f.Capacity()
	// Cold data fills the first half once.
	for l := int64(0); l < n/2; l++ {
		f.WriteLPN(l, nil, func(error) {})
		eng.Run()
	}
	// Hot churn over a few pages in the second half.
	for r := 0; r < rounds; r++ {
		for l := n / 2; l < n/2+4; l++ {
			f.WriteLPN(l, nil, func(error) {})
			eng.Run()
		}
	}
	return f
}

func TestStaticWearLevelingNarrowsSpread(t *testing.T) {
	base := writeThroughConfig()
	rounds := 400

	noWL := hotColdChurn(t, base, rounds)
	_, maxOff := eraseSpread(noWL)

	withWL := base
	withWL.staticWearThreshold = 8
	wl := hotColdChurn(t, withWL, rounds)
	minOn, maxOn := eraseSpread(wl)

	if wl.Stats().WearMoves == 0 {
		t.Fatal("static wear leveling never moved a page")
	}
	// With WL the most-worn block should be clearly less worn than
	// without: cold blocks absorbed part of the churn.
	if maxOn >= maxOff {
		t.Fatalf("static WL did not cap wear: max %d with WL, %d without", maxOn, maxOff)
	}
	// WL is throttled (one cold block per check window), so the
	// steady-state spread is bounded by the threshold plus the check
	// cadence times the number of cold blocks (3 here), not by the
	// threshold alone.
	bound := 8 + staticWLCheckRate*4
	if int(maxOn-minOn) > bound {
		t.Fatalf("erase spread %d exceeds throttle bound %d", maxOn-minOn, bound)
	}
}

func TestStaticWearLevelingPreservesData(t *testing.T) {
	cfg := writeThroughConfig()
	cfg.staticWearThreshold = 6
	eng, arr := tinyArray(t, 1, 1)
	f, err := NewPageFTL(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := f.Capacity()
	// Cold half with recognizable payloads.
	for l := int64(0); l < n/2; l++ {
		mustWrite(t, eng, f, l, byte(l+1))
	}
	for r := 0; r < 300; r++ {
		for l := n / 2; l < n/2+4; l++ {
			f.WriteLPN(l, nil, func(error) {})
			eng.Run()
		}
	}
	if f.Stats().WearMoves == 0 {
		t.Skip("wear leveling never triggered at this scale")
	}
	for l := int64(0); l < n/2; l++ {
		got := mustRead(t, eng, f, l)
		if got == nil || got[0] != byte(l+1) {
			t.Fatalf("cold lpn %d corrupted by wear leveling", l)
		}
	}
}

func TestCostBenefitBeatsGreedyOnSkew(t *testing.T) {
	// Under a skewed (hot/cold) update stream, cost-benefit cleaning
	// should not do more GC work than greedy does; classically it does
	// less because it avoids re-cleaning hot blocks too early.
	run := func(policy GCPolicy) float64 {
		eng, arr := tinyArray(t, 2, 2)
		cfg := writeThroughConfig()
		cfg.GCPolicy = policy
		f, err := NewPageFTL(arr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := f.Capacity()
		rng := sim.NewRNG(5)
		zipf := sim.NewZipf(rng, n, 0.9)
		for i := int64(0); i < n; i++ {
			f.WriteLPN(i, nil, func(error) {})
			eng.Run()
		}
		for i := 0; i < int(n)*8; i++ {
			f.WriteLPN(zipf.Next(), nil, func(error) {})
			eng.Run()
		}
		return WriteAmplification(f, arr)
	}
	greedy := run(GCGreedy)
	cb := run(GCCostBenefit)
	if cb > greedy*1.3 {
		t.Fatalf("cost-benefit WA %.2f much worse than greedy %.2f on skewed stream", cb, greedy)
	}
}

func TestGCPolicyBothSurviveUniform(t *testing.T) {
	for _, policy := range []GCPolicy{GCGreedy, GCCostBenefit} {
		eng, arr := tinyArray(t, 2, 2)
		cfg := writeThroughConfig()
		cfg.GCPolicy = policy
		f, err := NewPageFTL(arr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := f.Capacity()
		rng := sim.NewRNG(9)
		for i := int64(0); i < 6*n; i++ {
			var werr error
			f.WriteLPN(rng.Int63n(n), nil, func(err error) { werr = err })
			eng.Run()
			if werr != nil {
				t.Fatalf("policy %d: write failed: %v", policy, werr)
			}
		}
		if wa := WriteAmplification(f, arr); wa < 1 {
			t.Fatalf("policy %d: WA %v < 1", policy, wa)
		}
	}
}
