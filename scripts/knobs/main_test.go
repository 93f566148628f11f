package main

import (
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestCensusOverTestdata runs both censuses over testdata, a small tree
// laid out like the repository's, and testdata/func.txt, a covdata func
// listing of it: an unrun function without a reason is reported; a
// generic method's receiverless line is matched to its declaration; a
// reason for an exported name stands when another package's test
// (Excused, Box.Get), its non-test code (Wired) or its call through an
// interface (S.Size) uses the name, and is refused when only its own
// directory's tests do (TestOnly, in-package and external); a reasons or
// kept entry that names no hit fails the run, and so does a product
// package the listing does not show. The listing's bench line is not
// counted.
func TestCensusOverTestdata(t *testing.T) {
	t.Chdir("testdata")
	raw, err := os.ReadFile("func.txt")
	if err != nil {
		t.Fatal(err)
	}
	listing := string(raw)
	kept := map[string]string{"lib.Config.Unset": "excused"}
	reasons := map[string]string{"lib.Excused": "excused", "lib.helper": "excused", "lib.Box.Get": "excused",
		"lib.Wired": "excused", "lib.S.Size": "excused"}
	with := func(k, v string) map[string]string {
		m := maps.Clone(reasons)
		m[k] = v
		return m
	}
	without := func(k string) map[string]string {
		m := maps.Clone(reasons)
		delete(m, k)
		return m
	}
	for _, tc := range []struct {
		name          string
		listing       string
		kept, reasons map[string]string
		fails         []string // the start of each failure, in order
	}{
		{"an unexplained hit fails; reasons another package's test backs stand",
			listing, kept, reasons,
			[]string{"functions the product never runs; delete them, run them, or give a reason: lib.TestOnly"}},
		{"a generic method's receiverless line is matched",
			listing, kept, without("lib.Box.Get"),
			[]string{"functions the product never runs; delete them, run them, or give a reason: lib.Box.Get lib.TestOnly"}},
		{"a reason only the package's own tests back is refused",
			listing, kept, with("lib.TestOnly", "excused"),
			[]string{"reasons entries for exported names nothing outside their package uses; unexport or delete them: lib.TestOnly"}},
		{"a stale reason fails",
			listing, kept, with("lib.Used", "stale"),
			[]string{"functions the product never runs; delete them, run them, or give a reason: lib.TestOnly",
				"reasons entries name no unrun function: lib.Used"}},
		{"a stale kept entry fails",
			listing, map[string]string{"lib.Config.Unset": "excused", "lib.Config.Set": "stale"}, reasons,
			[]string{"kept entries name no never-set field: lib.Config.Set",
				"functions the product never runs; delete them, run them, or give a reason: lib.TestOnly"}},
		{"a package missing from the pool fails",
			strings.Join(slices.DeleteFunc(strings.Split(listing, "\n"), func(l string) bool {
				return strings.HasPrefix(l, "repro/cmd/")
			}), "\n"), kept, reasons,
			[]string{"functions the product never runs; delete them, run them, or give a reason: lib.TestOnly",
				"product packages in no pooled run: repro/cmd/tool"}},
	} {
		var out strings.Builder
		fails, err := run(&out, tc.listing, tc.kept, tc.reasons)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(fails, tc.fails) {
			t.Errorf("%s: fails %q, want %q\n%s", tc.name, fails, tc.fails, out.String())
		}
	}
}
