package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// contractLine is the harness's result line, as this program prints it.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

// runOnce runs one workload in a fresh process of this binary and
// parses the result line, the way the harness does.
func runOnce(workload string, seed uint64, seconds float64, passes int) (*contractLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-passes", fmt.Sprint(passes), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var cl contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cl); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !cl.Correct || cl.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, cl.Correct, cl.Failed)
	}
	return &cl, nil
}

// runAA is the A/A check: two sets of n runs of the same tree, each
// run a fresh process and each with another seed (seed, seed+1, …, the
// same seeds in both sets, as the harness does it). For every workload
// and end-to-end metric it prints, as a markdown table, each set's
// median, the gap between them in the metric's worse direction, and
// each set's quartile spread, all against the metric's bound. It
// returns 1 when a gap or a spread (setup_s's spread excepted, as in
// the harness) exceeds its bound.
func runAA(n int, seed uint64, seconds float64, passes int) int {
	fmt.Printf("# A/A: two sets of %d runs of the same tree\n\n", n)
	fmt.Printf("Seeds %d..%d in both sets, %g s of timed work in %d passes per run, GOMAXPROCS=%d. ", seed, seed+uint64(n)-1, seconds, passes, hostProcs)
	fmt.Printf("`gap` is how much worse the second set's median is than the first's, `spread` the distance between the quartiles of one set as a share of its median; both are held against `bound`.\n\n")
	breaches := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				cl, err := runOnce(w.name, seed+uint64(i), seconds, passes)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				for name, v := range cl.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		fmt.Printf("## %s\n\n| metric | median A | median B | gap | spread A | spread B | bound | |\n|---|---:|---:|---:|---:|---:|---:|---|\n", w.name)
		for _, sp := range endToEnd {
			a, b := median(sets[0][sp.name]), median(sets[1][sp.name])
			gap := ratio(b-a, a)
			if sp.better == "higher" {
				gap = -gap
			}
			sa, sb := quartileSpread(sets[0][sp.name]), quartileSpread(sets[1][sp.name])
			verdict := "ok"
			if gap > sp.bound || (sp.name != "setup_s" && (sa > sp.bound || sb > sp.bound)) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n", sp.name, a, b, 100*gap, 100*sa, 100*sb, 100*sp.bound, verdict)
		}
		fmt.Println()
	}
	if breaches > 0 {
		fmt.Printf("%d breach(es).\n", breaches)
		return 1
	}
	fmt.Println("No breach: every gap and spread is within its bound.")
	return 0
}
