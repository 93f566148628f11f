// Command benchdiff compares two captures and prints every headline
// that differs: a key whose value changed, a key present on one side
// only, or a record present on one side only. Virtual time is
// deterministic, so any line is a real change in what the model does,
// and the change that causes it should say why. Run from the repository
// root:
//
//	go run ./scripts/benchdiff BENCH_QUICK.json BENCH_CI.json
//	go run ./scripts/benchdiff BENCH_VIRT.json bench-virt.json
//
// It reads two layouts. A `deathbench -json` record is an experiment and
// its headline map. A `bench -json` record is a workload; its headlines
// are its virtual-clock end-to-end metrics (virt_*), since the host
// clock differs run to run, and its scale is its seed and op count per
// pass. BENCH_VIRT.json is a bench capture cut down to those:
//
//	bash bench/run.sh -passes 1 -seconds 2.4 -json bench-virt.json
//	jq '[.[] | {workload, seed, attempted, end_to_end: (.end_to_end | with_entries(select(.key | startswith("virt_"))))}]' bench-virt.json > BENCH_VIRT.json
//
// BENCH_VIRT_SEED2.json is the same cut of a seed-2 run (`-seed 2`,
// written to bench-virt-seed2.json), compared the same way.
//
// It exits 0 when the headlines match, 1 when any differ, 2 on a usage
// or read error.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// result is the part of a record compared here.
type result struct {
	ID       string             `json:"id"`
	Scale    string             `json:"scale"`
	Headline map[string]float64 `json:"headline"`
}

// benchRecord is the part of a `bench -json` workload record read here.
type benchRecord struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Attempted int64  `json:"attempted"`
	EndToEnd  map[string]struct {
		Value float64 `json:"value"`
	} `json:"end_to_end"`
}

// virtual is the workload as a result: its virtual-clock metrics are its
// headline.
func (b benchRecord) virtual() result {
	r := result{
		ID:       b.Workload,
		Scale:    fmt.Sprintf("seed %d, %d ops per pass", b.Seed, b.Attempted),
		Headline: map[string]float64{},
	}
	for k, m := range b.EndToEnd {
		if strings.HasPrefix(k, "virt_") {
			r.Headline[k] = m.Value
		}
	}
	return r
}

func load(path string) (map[string]result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []struct {
		result
		benchRecord
	}
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	byID := make(map[string]result, len(rs))
	for _, r := range rs {
		if r.Workload != "" {
			r.result = r.virtual()
		}
		byID[r.ID] = r.result
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
	fmt.Printf("benchdiff: %d records, headlines identical\n", len(captures[1]))
}
