package main

import (
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
