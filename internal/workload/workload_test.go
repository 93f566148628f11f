package workload

import (
	"testing"
)

func TestPatternNames(t *testing.T) {
	names := map[Pattern]string{SR: "SR", RR: "RR", SW: "SW", RW: "RW", ZR: "ZR", ZW: "ZW", MIX: "MIX"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if Pattern(42).String() == "" {
		t.Error("unknown pattern should still format")
	}
}

func TestSequentialAdvancesAndWraps(t *testing.T) {
	g, err := NewGenerator(SW, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for i := 0; i < 6; i++ {
		a := g.Next()
		if a.Kind != Write {
			t.Fatal("SW produced a read")
		}
		got = append(got, a.LPN)
	}
	want := []int64{0, 1, 2, 3, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seq = %v, want %v", got, want)
		}
	}
}

func TestRandomInRangeAndDeterministic(t *testing.T) {
	g1, _ := NewGenerator(RW, 100, 7)
	g2, _ := NewGenerator(RW, 100, 7)
	for i := 0; i < 1000; i++ {
		a, b := g1.Next(), g2.Next()
		if a.LPN != b.LPN {
			t.Fatal("same seed diverged")
		}
		if a.LPN < 0 || a.LPN >= 100 {
			t.Fatalf("LPN %d out of range", a.LPN)
		}
		if a.Kind != Write {
			t.Fatal("RW produced a read")
		}
	}
}

func TestZipfSkewed(t *testing.T) {
	g, _ := NewGenerator(ZW, 1000, 3)
	counts := map[int64]int{}
	for i := 0; i < 20000; i++ {
		counts[g.Next().LPN]++
	}
	if counts[0] < 20*counts[500]+1 {
		t.Fatalf("zipf not skewed: hot=%d cold=%d", counts[0], counts[500])
	}
}

func TestMixHasBothKinds(t *testing.T) {
	g, _ := NewGenerator(MIX, 100, 9)
	reads, writes := 0, 0
	for i := 0; i < 1000; i++ {
		if g.Next().Kind == Read {
			reads++
		} else {
			writes++
		}
	}
	if reads < 300 || writes < 300 {
		t.Fatalf("mix unbalanced: %d reads, %d writes", reads, writes)
	}
}

func TestInvalidSpanRejected(t *testing.T) {
	if _, err := NewGenerator(SR, 0, 1); err == nil {
		t.Fatal("zero span accepted")
	}
}

func TestTxnGenerator(t *testing.T) {
	g, err := NewTxnGenerator(1000, 100, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	sawDelete := false
	for i := 0; i < 200; i++ {
		txn := g.Next()
		if len(txn.Puts) == 0 && len(txn.Deletes) == 0 {
			t.Fatal("empty transaction")
		}
		for k, v := range txn.Puts {
			if len(k) == 0 || len(v) != 100 {
				t.Fatalf("bad put %q -> %d bytes", k, len(v))
			}
		}
		if len(txn.Deletes) > 0 {
			sawDelete = true
		}
	}
	if !sawDelete {
		t.Fatal("no deletes in 200 txns at 5% delete rate")
	}
}

func TestTxnGeneratorRejectsBadParams(t *testing.T) {
	if _, err := NewTxnGenerator(0, 10, 1, 1); err == nil {
		t.Fatal("zero keys accepted")
	}
	if _, err := NewTxnGenerator(10, 10, 0, 1); err == nil {
		t.Fatal("zero ops accepted")
	}
}

func TestNoisyNeighborMixShape(t *testing.T) {
	specs := NoisyNeighborMix(4)
	if len(specs) != 5 {
		t.Fatalf("got %d specs, want 5", len(specs))
	}
	if !specs[0].LatencySensitive || specs[0].ThinkTime == 0 {
		t.Fatal("first tenant must be an open-loop latency-sensitive reader")
	}
	for i, s := range specs[1:] {
		if s.LatencySensitive {
			t.Fatalf("neighbor %d marked latency-sensitive", i)
		}
		if s.Depth < 1 || s.Weight < 1 || s.Seed == 0 || s.Name == "" {
			t.Fatalf("neighbor %d not normalized: %+v", i, s)
		}
	}
	if specs[0].Weight <= specs[1].Weight {
		t.Fatal("latency-sensitive tenant should outweigh a neighbor")
	}
}

func TestTenantMixGeneratorsDiffer(t *testing.T) {
	specs := NoisyNeighborMix(2)
	g1, err := NewTenantGenerator(specs[1], 1000)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewTenantGenerator(specs[2], 1000)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 16; i++ {
		if g1.Next().LPN != g2.Next().LPN {
			same = false
		}
	}
	if same {
		t.Fatal("neighbor streams identical; seeds not differentiated")
	}
}

func TestScanHeavyAndMixedMixes(t *testing.T) {
	if n := len(ScanHeavyMix(3)); n != 4 {
		t.Fatalf("scan mix size %d, want 4", n)
	}
	for _, s := range MixedRWMix() {
		if s.Name == "" || s.Weight < 1 || s.Depth < 1 {
			t.Fatalf("mixed spec not normalized: %+v", s)
		}
	}
}
