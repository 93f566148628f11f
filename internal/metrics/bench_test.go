package metrics

import "testing"

// BenchmarkHistogramRecord is the per-sample cost every latency ledger
// pays: samples spread over three decades (1 µs to 1 ms), so after
// warm-up every Record lands in an occupied bucket.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	u := uint64(1)
	b.ReportAllocs()
	for b.Loop() {
		u = u*6364136223846793005 + 1442695040888963407
		h.Record(int64(1000 + u>>44))
	}
}
