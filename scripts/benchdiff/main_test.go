package main

import (
	"maps"
	"os"
	"slices"
	"testing"
)

func TestDiffNamesEveryKindOfChange(t *testing.T) {
	old := map[string]result{
		"E1": {ID: "E1", Scale: "quick", Headline: map[string]float64{"same": 1, "moved": 2, "dropped": 3}},
		"E2": {ID: "E2", Scale: "quick", Headline: map[string]float64{"x": 1}},
	}
	cur := map[string]result{
		"E1": {ID: "E1", Scale: "full", Headline: map[string]float64{"same": 1, "moved": 2.5, "added": 4}},
		"E3": {ID: "E3", Scale: "quick", Headline: map[string]float64{"y": 1}},
	}
	want := []string{
		`E1: scale "quick" -> "full"`,
		"E1 added: (new) -> 4",
		"E1 dropped: 3 -> (gone)",
		"E1 moved: 2 -> 2.5",
		"E2: only in the first capture",
		"E3: only in the second capture",
	}
	if got := diff(old, cur); !slices.Equal(got, want) {
		t.Fatalf("diff =\n%q\nwant\n%q", got, want)
	}
	if got := diff(old, old); len(got) != 0 {
		t.Fatalf("a capture differs from itself: %q", got)
	}
}

func TestLoadKeepsBenchVirtualMetrics(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	raw := `[{"workload": "dev_mixed", "seed": 1, "attempted": 1000, "passes": 1,
		"end_to_end": {"virt_ops_per_s": {"value": 17975, "unit": "1/s"}, "host_us_per_op": {"value": 2.1, "unit": "us"}},
		"per_layer": {"nand.reads_per_op": {"value": 0.7, "unit": "count"}}}]`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := result{ID: "dev_mixed", Scale: "seed 1, 1000 ops per pass", Headline: map[string]float64{"virt_ops_per_s": 17975}}
	if r := got["dev_mixed"]; len(got) != 1 || r.ID != want.ID || r.Scale != want.Scale || !maps.Equal(r.Headline, want.Headline) {
		t.Fatalf("load = %+v, want only %+v", got, want)
	}
}
