// Command benchdiff compares two `deathbench -json` captures and prints
// every headline that differs: a key whose value changed, a key present
// on one side only, or an experiment present on one side only. Virtual
// time is deterministic, so any line is a real change in what the model
// does, and the PR that causes it should say why. Run from the
// repository root:
//
//	go run ./scripts/benchdiff BENCH_QUICK.json BENCH_CI.json
//
// It exits 0 when the headlines match, 1 when any differ, 2 on a usage
// or read error.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// result is the part of deathbench's per-experiment record compared here.
type result struct {
	ID       string             `json:"id"`
	Scale    string             `json:"scale"`
	Headline map[string]float64 `json:"headline"`
}

func load(path string) (map[string]result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	byID := make(map[string]result, len(rs))
	for _, r := range rs {
		byID[r.ID] = r
	}
	return byID, nil
}

// sortedKeys returns the union of the two maps' keys in sorted order.
func sortedKeys[V any](a, b map[string]V) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// diff returns one line per difference between the captures.
func diff(old, cur map[string]result) []string {
	var out []string
	for _, id := range sortedKeys(old, cur) {
		o, inOld := old[id]
		c, inCur := cur[id]
		switch {
		case !inCur:
			out = append(out, fmt.Sprintf("%s: only in the first capture", id))
			continue
		case !inOld:
			out = append(out, fmt.Sprintf("%s: only in the second capture", id))
			continue
		case o.Scale != c.Scale:
			out = append(out, fmt.Sprintf("%s: scale %q -> %q", id, o.Scale, c.Scale))
		}
		for _, k := range sortedKeys(o.Headline, c.Headline) {
			ov, inO := o.Headline[k]
			cv, inC := c.Headline[k]
			switch {
			case !inC:
				out = append(out, fmt.Sprintf("%s %s: %v -> (gone)", id, k, ov))
			case !inO:
				out = append(out, fmt.Sprintf("%s %s: (new) -> %v", id, k, cv))
			case ov != cv:
				out = append(out, fmt.Sprintf("%s %s: %v -> %v", id, k, ov, cv))
			}
		}
	}
	return out
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD.json NEW.json")
		os.Exit(2)
	}
	var captures [2]map[string]result
	for i, path := range os.Args[1:] {
		c, err := load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		captures[i] = c
	}
	lines := diff(captures[0], captures[1])
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(lines) > 0 {
		fmt.Printf("benchdiff: %d headline(s) differ between %s and %s\n", len(lines), os.Args[1], os.Args[2])
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d experiments, headlines identical\n", len(captures[1]))
}
