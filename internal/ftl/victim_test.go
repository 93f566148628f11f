package ftl

import (
	"testing"

	"repro/internal/sim"
)

// TestVictimWeighsAgeAgainstLivePages: of two full blocks, the one with
// fewer live pages is the victim when both are as old, and an older one
// with a few more live pages is the victim when it is four times as old
// — which greedy (fewest live pages) never picks.
func TestVictimWeighsAgeAgainstLivePages(t *testing.T) {
	spec := tinySpec()
	spec.Geometry.PagesPerBlock = 32
	eng, arr := tinyArrayOf(t, spec, 1, 1)
	f, err := NewPageFTL(arr, writeThroughConfig())
	if err != nil {
		t.Fatal(err)
	}
	const old, young = PBA(0), PBA(1)
	eng.Schedule(3999, func() {})
	eng.Run()
	for _, c := range []struct {
		name       string
		youngSince sim.Time
		want       PBA
	}{
		{"same age", 0, young},
		{"ages 4:1", 3000, old},
	} {
		f.blocks[old] = blockMeta{state: blockFull, valid: 10, writePtr: 32, lastWrite: 0}
		f.blocks[young] = blockMeta{state: blockFull, valid: 8, writePtr: 32, lastWrite: c.youngSince}
		if got := f.pickVictim(0); got != c.want {
			t.Errorf("%s: victim %d, want %d (10 of 32 live written at 0, 8 of 32 written at %d, now %d)",
				c.name, got, c.want, c.youngSince, eng.Now())
		}
	}
}

// TestVictimPolicyCutsZipfWriteAmp: under Zipf(0.99) overwrites at 12 %
// over-provisioning, GC copies fewer pages than greedy victim choice
// does. Greedy reads 3.72–3.75 here over seeds 1–3; the policy reads
// 3.18–3.23.
func TestVictimPolicyCutsZipfWriteAmp(t *testing.T) {
	spec := tinySpec()
	spec.Geometry.PagesPerBlock, spec.Geometry.BlocksPerPlane = 16, 128
	eng, arr := tinyArrayOf(t, spec, 2, 2)
	cfg := writeThroughConfig()
	cfg.OverProvision = 0.12
	f, err := NewPageFTL(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := f.Capacity()
	for i := int64(0); i < n; i++ {
		f.WriteLPN(i, nil, func(error) {})
		eng.Run()
	}
	zipf := sim.NewZipf(sim.NewRNG(1), n, 0.99)
	start := arr.PagePrograms + arr.CopyBacks
	writes := 8 * n
	for i := int64(0); i < writes; i++ {
		f.WriteLPN(zipf.Next(), nil, func(error) {})
		eng.Run()
	}
	if wa := float64(arr.PagePrograms+arr.CopyBacks-start) / float64(writes); wa > 3.45 {
		t.Fatalf("write amp %.3f over %d Zipf overwrites, want <= 3.45 (greedy reads 3.72)", wa, writes)
	}
}

func TestVictimPolicySurvivesUniform(t *testing.T) {
	eng, arr := tinyArray(t, 2, 2)
	f, err := NewPageFTL(arr, writeThroughConfig())
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
			t.Fatalf("write %d failed: %v", i, werr)
		}
	}
	if wa := WriteAmplification(f, arr); wa < 1 {
		t.Fatalf("WA %v < 1", wa)
	}
}
