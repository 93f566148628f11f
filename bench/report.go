package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// report is everything one run of one workload produced.
type report struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Seed      uint64   `json:"seed"`
	Passes    int      `json:"passes"`
	Procs     int      `json:"gomaxprocs"`
	Events    int64    `json:"events_per_pass"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Checks    []string `json:"checks"`
	EndToEnd  []metric `json:"-"`
	PerLayer  []metric `json:"-"`
	// Peel and Ladder are the traced run's tables, one line per rung.
	Peel   []string `json:"peel,omitempty"`
	Ladder []string `json:"ladder,omitempty"`
	// TraceFile is where the traced run wrote its spans.
	TraceFile string `json:"trace_file,omitempty"`
	OpenLoop  bool   `json:"open_loop"`
}

// measure runs one workload: k identical timed passes, and with trace
// the traced passes, profile and peel on top.
func measure(w *workloadDef, seed uint64, seconds float64, passes int, trace, withLadder bool, outDir string) (*report, error) {
	sz := w.sizeFor(seconds, passes)
	r, err := run(w, seed, sz, passes, false)
	if err != nil {
		return nil, err
	}
	p0 := r.passes[0]
	rep := &report{
		Workload: w.name, Why: w.why, Seed: seed, Passes: len(r.passes), Procs: hostProcs,
		Events:    p0.host.events,
		Attempted: p0.v.attempted, Failed: p0.v.attempted - p0.v.completed,
		OpenLoop: w.openLoop,
	}
	rep.EndToEnd = append(append([]metric{}, p0.e2e...), endToEndHost(r)...)
	rep.PerLayer = perLayer(r)
	rep.Checks = append(rep.Checks,
		sprintf("virtual metrics, event and op counts identical across %d passes", len(r.passes)),
	)
	rep.Checks = append(rep.Checks, p0.v.checks...)
	if err := checkLayers(rep); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if trace {
		if err := rep.trace(w, seed, sz, outDir); err != nil {
			return nil, fmt.Errorf("%s traced run: %w", w.name, err)
		}
	}
	if w.openLoop && (trace || withLadder) {
		ms, lines, err := ladder(seed, sz)
		if err != nil {
			return nil, err
		}
		rep.PerLayer, rep.Ladder = append(rep.PerLayer, ms...), lines
	} else if trace {
		// Every traced run reports every per-layer metric; off the open
		// loop the ladder has nothing to measure.
		for _, lf := range ladderFactors {
			rep.PerLayer = append(rep.PerLayer, newMetric("serve.ladder_p99_us."+lf.name, 0, "open-loop workload only"))
		}
		rep.PerLayer = append(rep.PerLayer, newMetric("serve.max_rate_in_slo_per_s", 0, "open-loop workload only"))
	}
	if rep.PerLayer, err = inSpecOrder(rep.PerLayer, trace); err != nil {
		return nil, err
	}
	return rep, nil
}

// profilePasses is how many extra passes run under the CPU profiler.
const profilePasses = 2

// trace is the traced run: a CPU profile of the timed window folded
// into host_self_share.*, a pass with a root span on every request
// against an untraced twin (the tracing overhead, and the proof that
// tracing moves nothing on the virtual clock), and the layer peel. It
// writes the spans to outDir/trace-<workload>.json.
func (rep *report) trace(w *workloadDef, seed uint64, sz sizing, outDir string) error {
	var profiles []string
	for i := 0; i < profilePasses; i++ {
		path := sprintf("%s/cpu-%s-%d.pprof", outDir, w.name, i)
		if _, err := runPass(w.build, seed, sz, nil, path); err != nil {
			return err
		}
		profiles = append(profiles, path)
	}
	shares, err := foldProfile(profiles...)
	if err != nil {
		return err
	}
	var total float64
	for _, b := range selfBuckets {
		rep.PerLayer = append(rep.PerLayer, newMetric("host_self_share."+b, shares[b], ""))
		total += shares[b]
	}
	if total < 0.99 || total > 1.01 {
		return fmt.Errorf("host_self_share.* sums to %.4f, not 1", total)
	}
	rep.Checks = append(rep.Checks, sprintf("host_self_share.* sums to %.4f", total))

	// Root spans: half the window, at most 100k requests.
	tsz := sz
	if tsz.ops /= 2; tsz.ops > 100_000 {
		tsz.ops = 100_000
	}
	plain, err := run(w, seed, tsz, 3, false)
	if err != nil {
		return err
	}
	traced, err := run(w, seed, tsz, 3, true)
	if err != nil {
		return err
	}
	if a, b := plain.passes[0].fingerprint(), traced.passes[0].fingerprint(); a != b {
		return fmt.Errorf("root spans moved the virtual clock:\n  plain:  %s\n  traced: %s", a, b)
	}
	tr := traced.tr
	roots := tr.len()
	ms, table, err := peel(tr, seed, sz.small)
	if err != nil {
		return err
	}
	rep.PerLayer = append(rep.PerLayer, ms...)
	rep.Peel = table
	rep.PerLayer = append(rep.PerLayer,
		newMetric("trace.spans", float64(tr.len()), sprintf("%d request roots of this workload, the rest from the peel", roots)),
		newMetric("trace.overhead_host_share", float64(traced.hostNs)/float64(plain.hostNs)-1, "traced / untraced host time - 1, root spans only"),
	)
	rep.Checks = append(rep.Checks,
		"root spans and the peel's device wrapper move no virtual metric",
	)
	rep.TraceFile = sprintf("%s/trace-%s.json", outDir, w.name)
	return tr.write(rep.TraceFile)
}

// checkLayers holds the run to the layer-level conditions it must meet
// to mean anything: set-up long enough that write amplification had
// levelled off.
func checkLayers(rep *report) error {
	for _, m := range rep.PerLayer {
		if m.name == "ftl.write_amp_drift" && m.value != 0 && (m.value < 0.95 || m.value > 1.05) {
			fmt.Println(m.note)
			return fmt.Errorf("write amplification drifted %.3f× across the window's halves: set-up too short for steady state", m.value)
		}
	}
	rep.Checks = append(rep.Checks, "write amplification within 5% across the window's halves")
	return nil
}

func (rep *report) print(out io.Writer) {
	fmt.Fprintf(out, "== %s  seed=%d  passes=%d  GOMAXPROCS=%d  ops/pass=%d  events/pass=%d\n", rep.Workload, rep.Seed, rep.Passes, rep.Procs, rep.Attempted, rep.Events)
	fmt.Fprintf(out, "   %s\n", rep.Why)
	fmt.Fprintf(out, "   attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	if rep.OpenLoop {
		fmt.Fprintf(out, "   open loop: arrivals are events on the virtual clock, so the generator is never late by construction; latency is timed from each op's due instant\n")
	}
	printMetrics(out, "end to end", rep.EndToEnd)
	printMetrics(out, "per layer", rep.PerLayer)
	printLines(out, "layer peel (virtual time)", rep.Peel)
	printLines(out, "rate ladder", rep.Ladder)
	if rep.TraceFile != "" {
		fmt.Fprintf(out, "   spans written to %s\n", rep.TraceFile)
	}
	for _, c := range rep.Checks {
		fmt.Fprintf(out, "   ok: %s\n", c)
	}
}

func printLines(out io.Writer, title string, lines []string) {
	if len(lines) == 0 {
		return
	}
	fmt.Fprintf(out, " -- %s\n", title)
	for _, l := range lines {
		fmt.Fprintf(out, "   %s\n", l)
	}
}

func printMetrics(out io.Writer, title string, ms []metric) {
	fmt.Fprintf(out, " -- %s\n", title)
	for _, m := range ms {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Fprintf(out, "   %-34s %16.6f %-6s%s\n", m.name, m.value, m.unit, note)
	}
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract is the harness's result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (rep *report) contract(traced bool) map[string]any {
	ms := rep.EndToEnd
	if traced {
		ms = rep.PerLayer
	}
	vals := make(map[string]contractValue, len(ms))
	for _, m := range ms {
		vals[m.name] = contractValue{m.value, m.unit}
	}
	return map[string]any{
		"correct":   true,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   vals,
	}
}

// writeReports stores every metric of every workload run as JSON.
func writeReports(path string, reps []*report) error {
	type out struct {
		*report
		EndToEnd map[string]contractValue `json:"end_to_end"`
		PerLayer map[string]contractValue `json:"per_layer"`
	}
	var all []out
	for _, r := range reps {
		o := out{report: r, EndToEnd: map[string]contractValue{}, PerLayer: map[string]contractValue{}}
		for _, m := range r.EndToEnd {
			o.EndToEnd[m.name] = contractValue{m.value, m.unit}
		}
		for _, m := range r.PerLayer {
			o.PerLayer[m.name] = contractValue{m.value, m.unit}
		}
		all = append(all, o)
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
