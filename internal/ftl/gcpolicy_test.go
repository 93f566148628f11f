package ftl

import (
	"testing"

	"repro/internal/sim"
)

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
