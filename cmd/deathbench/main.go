// deathbench runs the full experiment suite (E1-E24): E1-E14 reproduce
// every figure and quantitative claim of "The Necessary Death of the
// Block Device Interface", and E15-E24 extend the reproduction with the
// multi-tenant studies built on the paper's communication abstraction:
// scheduler isolation (internal/sched), the sharded KV serving fabric
// with admission control (internal/serve), host→device GC coordination
// (the scheduler leasing GC deferrals from the device), the adaptive
// control plane (observed-service-time feedback closing the loop around
// billing, deadlines, admission and GC leases), replicated shard
// placement with GC-steered reads and drift-triggered live migration
// (internal/place), end-to-end request tracing with per-stage
// tail-latency attribution (internal/obs), continuous telemetry — the
// time-series sampler and SLO burn-rate health engine over it — fault
// injection (internal/faults): whole-device death under load with
// degraded serving and rebuild onto a spare — the batched
// submission path: submission/completion rings and multi-op group
// commit swept at batch sizes 1 and 8 at saturation (E23) — and
// resource profiling: per-chip/channel/CPU
// busy-time attribution with exact closure, folded-stack flame export
// and bottleneck identification across the saturation sweep (E24).
// It prints the paper-style tables. docs/EXPERIMENTS.md indexes every
// experiment with its headline result.
//
// Usage:
//
//	deathbench [-scale quick|full] [-only E5,E10] [-json results.json]
//	           [-obs telemetry.json] [-series series.json]
//	           [-profile profile.json]
//	           [-goldenseries scripts/series_golden.txt] [-serve :9464]
//
// With -json, machine-readable per-experiment results (id, title,
// scale, finding, headline metrics) are written to the given path, so
// the bench trajectory (BENCH_*.json) can be captured per run. With
// -obs, the unified telemetry snapshots (obs.Registry exports) of the
// experiments that keep one are written as a map keyed by experiment
// ID; -series does the same for sampled time-series ring dumps, and
// -profile for resource-attribution snapshots (per-resource causes,
// wait overlays, and the folded flame lines a flamegraph renderer can
// consume directly). -goldenseries compares the telemetry schema this
// run produced — every registry source name and every sampled series
// name — against a golden list and exits 1 on drift, printing a
// unified diff of the two name lists, so renamed or dropped telemetry
// fails CI with an actionable patch instead of silently breaking
// dashboards. -serve starts an HTTP listener exposing the most
// recently started fabric with telemetry on live at /metrics
// (Prometheus text), /snapshot, /series, /events, and /profile (folded
// flame text; ?format=json for the full snapshot), and keeps serving
// the final state after the suite finishes. The simulation stays on one
// thread: a request is rendered at the followed fabric's next sampler
// tick, and after the suite on the main goroutine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// jsonResult is one experiment's machine-readable record.
type jsonResult struct {
	ID       string             `json:"id"`
	Title    string             `json:"title"`
	Scale    string             `json:"scale"`
	Finding  string             `json:"finding"`
	Headline map[string]float64 `json:"headline,omitempty"`
}

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	onlyFlag := flag.String("only", "", "comma-separated experiment IDs (e.g. E5,E10); empty = all")
	jsonFlag := flag.String("json", "", "write machine-readable per-experiment results to this path")
	obsFlag := flag.String("obs", "", "write per-experiment telemetry snapshots (registry exports) to this path")
	seriesFlag := flag.String("series", "", "write per-experiment sampled time-series dumps to this path")
	profileFlag := flag.String("profile", "", "write per-experiment resource-attribution profiles (folded flame stacks included) to this path")
	goldenFlag := flag.String("goldenseries", "", "compare registry source and series names against this golden list; exit 1 on drift")
	serveFlag := flag.String("serve", "", "serve live telemetry over HTTP on this address (e.g. :9464)")
	flag.Parse()

	scale := experiments.Quick
	switch *scaleFlag {
	case "quick":
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "deathbench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	var live *obs.Exposition
	if *serveFlag != "" {
		live = obs.ServeLive()
		go func() {
			if err := http.ListenAndServe(*serveFlag, live.Handler()); err != nil {
				fmt.Fprintf(os.Stderr, "deathbench: serve %s: %v\n", *serveFlag, err)
				os.Exit(1)
			}
		}()
		fmt.Printf("serving live telemetry on %s (/metrics /snapshot /series /events /profile)\n\n", *serveFlag)
	}

	want := map[string]bool{}
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	failed := 0
	var records []jsonResult
	snapshots := map[string]map[string]any{}
	series := map[string]*obs.SeriesDump{}
	profiles := map[string]*obs.Profile{}
	schema := map[string]bool{}
	for _, r := range experiments.All {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		res, err := r.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, err)
			failed++
			continue
		}
		fmt.Println(res.String())
		records = append(records, jsonResult{
			ID:       res.ID,
			Title:    res.Title,
			Scale:    *scaleFlag,
			Finding:  res.Finding,
			Headline: res.Headline,
		})
		if res.Obs != nil {
			snapshots[res.ID] = res.Obs
			for src := range res.Obs {
				schema["registry:"+src] = true
			}
		}
		if res.Series != nil {
			series[res.ID] = res.Series
			for _, s := range res.Series.Series {
				schema["series:"+s.Name] = true
			}
		}
		if res.Profile != nil {
			profiles[res.ID] = res.Profile
		}
	}
	if *jsonFlag != "" {
		writeJSON(*jsonFlag, records)
	}
	if *obsFlag != "" {
		writeJSON(*obsFlag, snapshots)
	}
	if *seriesFlag != "" {
		writeJSON(*seriesFlag, series)
	}
	if *profileFlag != "" {
		writeJSON(*profileFlag, profiles)
	}
	if *goldenFlag != "" && !checkGolden(*goldenFlag, schema) {
		failed++
	}
	if failed > 0 {
		os.Exit(1)
	}
	if *serveFlag != "" {
		fmt.Println("suite done; still serving the final telemetry state (interrupt to exit)")
		live.ServeUntil(nil)
	}
}

// checkGolden diffs the telemetry schema this run produced against the
// golden list (one name per line, # comments allowed). Both missing and
// unexpected names are drift: a rename breaks whatever consumed the old
// name, and an unlisted addition means the golden list no longer
// describes the exported surface. On drift it prints a unified diff of
// the two sorted name lists — applying the "+"/"-" lines to the golden
// file is exactly the fix.
func checkGolden(path string, got map[string]bool) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deathbench: goldenseries: %v\n", err)
		return false
	}
	want := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want[line] = true
	}
	union := map[string]bool{}
	for name := range want {
		union[name] = true
	}
	for name := range got {
		union[name] = true
	}
	names := make([]string, 0, len(union))
	for name := range union {
		names = append(names, name)
	}
	sort.Strings(names)
	drift := 0
	var body strings.Builder
	for _, name := range names {
		switch {
		case want[name] && got[name]:
			fmt.Fprintf(&body, " %s\n", name)
		case want[name]: // in the golden list, missing from this run
			fmt.Fprintf(&body, "-%s\n", name)
			drift++
		default: // produced by this run, not in the golden list
			fmt.Fprintf(&body, "+%s\n", name)
			drift++
		}
	}
	if drift > 0 {
		fmt.Fprintf(os.Stderr, "deathbench: telemetry schema drift (%d names):\n", drift)
		fmt.Fprintf(os.Stderr, "--- %s\n+++ this run\n@@ -1,%d +1,%d @@\n%s",
			path, len(want), len(got), body.String())
		return false
	}
	fmt.Printf("telemetry schema matches %s (%d names)\n", path, len(want))
	return true
}

// writeJSON marshals v indented and writes it to path, exiting on error.
func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "deathbench: marshal %s: %v\n", path, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "deathbench: write %s: %v\n", path, err)
		os.Exit(1)
	}
}
