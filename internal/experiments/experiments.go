// Package experiments implements one runner per figure and per
// quantitative claim of the paper (the experiment index in
// docs/EXPERIMENTS.md, which also records paper-vs-measured). Each
// runner builds its devices, replays its workload in virtual time, and
// returns the table or chart that regenerates the paper's point.
// cmd/deathbench prints them all; the root bench suite wraps each in a
// testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Scale selects how much work each experiment does.
type Scale int

// Scales.
const (
	// Quick keeps runtimes test-friendly.
	Quick Scale = iota
	// Full is the bench/report scale.
	Full
)

// pick returns q at Quick scale and f at Full scale.
func (s Scale) pick(q, f int) int {
	if s == Full {
		return f
	}
	return q
}

// ms is pick in milliseconds of virtual time.
func (s Scale) ms(q, f int) sim.Time { return sim.Time(s.pick(q, f)) * sim.Millisecond }

// Result is one experiment's output.
type Result struct {
	ID      string
	Title   string
	Claim   string // the paper's statement being reproduced
	Tables  []*metrics.Table
	Figures []string // rendered ASCII charts
	Finding string   // one-line measured outcome
	// Headline carries the machine-readable metrics behind Finding
	// (metric name → value), emitted by cmd/deathbench -json so the
	// bench trajectory can be captured per run without screen-scraping
	// tables. Experiments fill what they headline; nil is fine.
	Headline map[string]float64
	// Obs is the experiment's merged telemetry snapshot (an
	// obs.Registry export), when the experiment runs a traced fabric
	// and captures one; cmd/deathbench -obs writes these per
	// experiment. Nil when the experiment keeps no registry.
	Obs map[string]any
	// Series is the experiment's sampled time-series rings (an
	// obs.Sampler dump), when the experiment runs a continuously
	// sampled fabric; cmd/deathbench -series writes these per
	// experiment. Nil when the experiment keeps no sampler.
	Series *obs.SeriesDump
	// Profile is the experiment's resource-attribution snapshot (an
	// obs.Profiler profile, folded flame stacks included), when the
	// experiment runs a profiled fabric; cmd/deathbench -profile writes
	// it. Nil when the experiment keeps no profiler.
	Profile *obs.Profile
}

// String renders the result for terminal output.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper claim: %s\n\n", r.Claim)
	for _, f := range r.Figures {
		b.WriteString(f)
		b.WriteByte('\n')
	}
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "measured: %s\n", r.Finding)
	return b.String()
}

// smallOptions scales device fabric down so steady state arrives fast.
func smallOptions(scale Scale) ssd.Options {
	if scale == Full {
		return ssd.Options{Channels: 2, ChipsPerChannel: 4, BlocksPerPlane: 128, PagesPerBlock: 32}
	}
	return ssd.Options{Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 48, PagesPerBlock: 16}
}

// drive issues n ops at queue depth qd against dev, invoking next for
// each op. It runs the engine to completion and returns elapsed time.
// Latencies accumulate in the device's own metrics (reset them first if
// needed).
func drive(eng *sim.Engine, dev ssd.Dev, n, qd int, next func(i int) (write bool, lpn int64)) sim.Time {
	start := eng.Now()
	issued := 0
	var submit func()
	submit = func() {
		if issued >= n {
			return
		}
		i := issued
		issued++
		write, lpn := next(i)
		if write {
			dev.Write(lpn, nil, func(error) { submit() })
		} else {
			dev.Read(lpn, func([]byte, error) { submit() })
		}
	}
	if qd < 1 {
		qd = 1
	}
	for k := 0; k < qd && k < n; k++ {
		submit()
	}
	eng.Run()
	return eng.Now() - start
}

// mbps converts bytes moved over a window into MB/s.
func mbps(bytes int64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / elapsed.Seconds()
}

// us formats nanoseconds as microseconds with one decimal.
func us(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e3) }
