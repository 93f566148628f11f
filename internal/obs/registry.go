package obs

import (
	"encoding/json"
	"math"

	"repro/internal/metrics"
)

// HistSummary is a histogram reduced to its exportable quantiles, in
// microseconds. StddevUs carries the spread so a series of interval
// summaries can tell a tail blowup (p99 and stddev explode, p50 and
// min hold) from a uniform slowdown (everything shifts together).
type HistSummary struct {
	Count    int64   `json:"count"`
	MeanUs   float64 `json:"mean_us"`
	StddevUs float64 `json:"stddev_us"`
	MinUs    float64 `json:"min_us"`
	P50Us    float64 `json:"p50_us"`
	P95Us    float64 `json:"p95_us"`
	P99Us    float64 `json:"p99_us"`
	MaxUs    float64 `json:"max_us"`
}

// Summarize reduces a histogram to its exportable quantiles.
func Summarize(h *metrics.Histogram) HistSummary {
	if h == nil || h.Count() == 0 {
		return HistSummary{}
	}
	return HistSummary{
		Count:    h.Count(),
		MeanUs:   h.Mean() / 1e3,
		StddevUs: math.Sqrt(h.Variance()) / 1e3,
		MinUs:    float64(h.Min()) / 1e3,
		P50Us:    float64(h.P50()) / 1e3,
		P95Us:    float64(h.P95()) / 1e3,
		P99Us:    float64(h.P99()) / 1e3,
		MaxUs:    float64(h.Max()) / 1e3,
	}
}

// SummarizeTenants reduces a per-tenant latency ledger to exportable
// quantiles, keyed by tenant name.
func SummarizeTenants(t *metrics.TenantLatencies) map[string]HistSummary {
	if t == nil {
		return nil
	}
	out := make(map[string]HistSummary, len(t.Tenants()))
	for _, name := range t.Tenants() {
		out[name] = Summarize(t.Hist(name))
	}
	return out
}

// Registry merges the stack's scattered ledgers — shard admission
// counters, per-shard latencies, GC coordination counters, calibration
// state, placement steering, trace aggregates — into one exportable
// JSON document. Layers attach named sources (closures over their live
// state); Export evaluates every source at snapshot time, so one call
// sees a consistent picture of a finished (or paused) run.
type Registry struct {
	order   []string
	sources map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: make(map[string]func() any)}
}

// Attach registers (or replaces) a named snapshot source. The closure
// is evaluated at Export time and must return a JSON-marshalable
// value. Nil-safe.
func (r *Registry) Attach(name string, fn func() any) {
	if r == nil || fn == nil {
		return
	}
	if _, ok := r.sources[name]; !ok {
		r.order = append(r.order, name)
	}
	r.sources[name] = fn
}

// Export evaluates every source and returns the merged document.
func (r *Registry) Export() map[string]any {
	if r == nil {
		return nil
	}
	out := make(map[string]any, len(r.order))
	for _, name := range r.order {
		out[name] = r.sources[name]()
	}
	return out
}

// JSON marshals the merged document, indented for artifact files.
func (r *Registry) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Export(), "", "  ")
}
