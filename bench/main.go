// Command bench is the repository's benchmark: four workloads measured
// on two clocks. The virtual clock is what the modelled storage system
// does; it is deterministic, so those metrics repeat exactly for one
// seed. The host clock is what the simulator itself costs; it is
// estimated defensively, from the minimum of each fixed slice of work
// across several identical passes. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

var sprintf = fmt.Sprintf

// hostProcs is the GOMAXPROCS every run is pinned to.
const hostProcs = 2

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "wall seconds of timed work per run, summed over the passes (sizes the op count)")
		passes   = flag.Int("passes", 5, "identical passes per run")
		trace    = flag.Int("trace", 0, "1 = also run the traced passes, the CPU profile and the layer peel")
		outDir   = flag.String("out", "bench/out", "directory for the traced run's span and profile files")
		jsonOut  = flag.String("json", "", "also write every metric to this file")
		aa       = flag.Int("aa", 0, "run two sets of N full runs of this tree and compare their medians")
		capacity = flag.Bool("capacity", false, "measure the kv_open fabric's closed-loop capacity (the figure kvOpenRate is set against)")
		describe = flag.Bool("describe", false, "print BENCHMARK.json as the benchmark's own tables define it")
		ladder   = flag.Bool("ladder", false, "kv_open: also run the rate ladder (implied by -trace 1)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(hostProcs)

	if *describe {
		fmt.Println(describeJSON())
		return
	}
	if *capacity {
		w := &workloadDef{name: "kv_open_closed", why: "the kv_open fabric and mix under 64 closed-loop clients", opsPerSecond: 20_000, build: buildKV(kvOpenClosed)}
		rep, err := measure(w, *seed, *seconds, 1, false, false, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		return
	}
	if *aa > 0 {
		os.Exit(runAA(*aa, *seed, *seconds, *passes))
	}
	var defs []*workloadDef
	if *workload == "all" {
		defs = workloads
	} else if w := findWorkload(*workload); w != nil {
		defs = []*workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	var reports []*report
	ok := true
	for _, w := range defs {
		rep, err := measure(w, *seed, *seconds, *passes, *trace == 1, *ladder, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			ok = false
			break
		}
		rep.print(os.Stdout)
		reports = append(reports, rep)
	}
	if *jsonOut != "" && ok {
		if err := writeReports(*jsonOut, reports); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
	// The harness reads the last line of standard output: one workload,
	// its end-to-end metrics untraced or its per-layer metrics traced.
	if len(reports) == 1 {
		line, err := json.Marshal(reports[0].contract(*trace == 1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runSeconds is BENCHMARK.json's run_seconds: the timed work of one
// run, summed over its passes, on the reference box.
const runSeconds = 12

// describeJSON renders BENCHMARK.json from the benchmark's own tables,
// so the file and the program cannot drift apart unnoticed (a test
// compares them).
func describeJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, s := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{s.name, s.unit, s.better, s.bound})
	}
	for _, s := range perLayerSpecs {
		doc.PerLayer = append(doc.PerLayer, layer{s.name, s.unit, s.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is built from literals
	}
	return string(b)
}
