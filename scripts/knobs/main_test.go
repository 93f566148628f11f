package main

import (
	"slices"
	"strings"
	"testing"
)

// TestCensusOverTestdata runs both censuses over testdata, a small tree
// laid out like the repository's: an exported function called only from
// a _test.go file is reported; one called through an interface literal,
// on a generic instantiation, or from a root Example is not; and a
// reasons or kept entry that names no census hit fails the run.
func TestCensusOverTestdata(t *testing.T) {
	t.Chdir("testdata")
	for _, tc := range []struct {
		name          string
		kept, reasons map[string]string
		fails         []string // the start of each failure, in order
	}{
		{"a test-only caller is reported",
			map[string]string{"lib.Config.Unset": "excused"},
			map[string]string{"lib.Excused": "excused"},
			[]string{"exported API without a non-test caller; delete it or give a reason: lib.TestOnly"}},
		{"a reason covers a hit",
			map[string]string{"lib.Config.Unset": "excused"},
			map[string]string{"lib.Excused": "excused", "lib.TestOnly": "excused"},
			nil},
		{"a stale reason fails",
			map[string]string{"lib.Config.Unset": "excused"},
			map[string]string{"lib.Excused": "excused", "lib.TestOnly": "excused", "lib.Used": "stale"},
			[]string{"reasons entries name no census hit: lib.Used"}},
		{"a stale kept entry fails",
			map[string]string{"lib.Config.Unset": "excused", "lib.Config.Set": "stale"},
			map[string]string{"lib.Excused": "excused", "lib.TestOnly": "excused"},
			[]string{"kept entries name no never-set field: lib.Config.Set"}},
	} {
		var out strings.Builder
		fails, err := run(&out, tc.kept, tc.reasons)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(fails, tc.fails) {
			t.Errorf("%s: fails %q, want %q\n%s", tc.name, fails, tc.fails, out.String())
		}
	}
}
