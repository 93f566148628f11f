package metrics

import "fmt"

// TenantLatencies keys latency histograms by tenant name, preserving
// first-seen order so tables and comparisons render deterministically.
// It is the measurement side of multi-tenant scheduling (package sched):
// experiments record each tenant's end-to-end request latency here and
// print one row per tenant.
type TenantLatencies struct {
	order []string
	hists map[string]*Histogram
}

// NewTenantLatencies returns an empty per-tenant latency set.
func NewTenantLatencies() *TenantLatencies {
	return &TenantLatencies{hists: make(map[string]*Histogram)}
}

// Hist returns tenant's histogram, creating it on first use.
func (t *TenantLatencies) Hist(tenant string) *Histogram {
	h, ok := t.hists[tenant]
	if !ok {
		h = &Histogram{}
		t.hists[tenant] = h
		t.order = append(t.order, tenant)
	}
	return h
}

// Record adds one latency sample (nanoseconds) for tenant.
func (t *TenantLatencies) Record(tenant string, v int64) {
	t.Hist(tenant).Record(v)
}

// Tenants lists tenant names in first-seen order.
func (t *TenantLatencies) Tenants() []string { return t.order }

// Reset discards every tenant's samples but keeps the tenant set.
func (t *TenantLatencies) Reset() {
	for _, h := range t.hists {
		h.Reset()
	}
}

// Table renders one row per tenant: sample count, mean, p50, p99 and
// max in microseconds.
func (t *TenantLatencies) Table(title string) *Table {
	tbl := NewTable(title, "tenant", "n", "mean (µs)", "p50 (µs)", "p99 (µs)", "max (µs)")
	for _, name := range t.order {
		h := t.hists[name]
		tbl.AddRow(name, h.Count(),
			fmt.Sprintf("%.1f", h.Mean()/1e3),
			fmt.Sprintf("%.1f", float64(h.P50())/1e3),
			fmt.Sprintf("%.1f", float64(h.P99())/1e3),
			fmt.Sprintf("%.1f", float64(h.Max())/1e3))
	}
	return tbl
}
