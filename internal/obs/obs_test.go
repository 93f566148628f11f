package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestSpanClosure: the serve stage closes the accounting — stages sum
// exactly to end-to-end, overlays stay outside the sum.
func TestSpanClosure(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.Open("latency", "get", 100)
	sp.MarkArrived(110)          // frontend 10
	sp.Stamp(StageAdmission, 40) // admission 40
	sp.Stamp(StageSched, 200)    // sched 200
	sp.Stamp(StageDevice, 500)   // device 500
	sp.NoteGCDeferred(60)        // overlay
	sp.NoteGC(3, true, true, 1)  // annotation
	sp.Close(1100, nil)          // total 1000 => serve = 250

	recs := tr.Slowest("latency")
	if len(recs) != 1 {
		t.Fatalf("flight recorder has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Total != 1000 {
		t.Fatalf("total = %d, want 1000", rec.Total)
	}
	want := [NumStages]sim.Time{10, 40, 200, 500, 250}
	if rec.Stages != want {
		t.Fatalf("stages = %v, want %v", rec.Stages, want)
	}
	var sum sim.Time
	for _, d := range rec.Stages {
		sum += d
	}
	if sum != rec.Total {
		t.Fatalf("stage sum %d != total %d", sum, rec.Total)
	}
	if rec.GCDeferred != 60 {
		t.Fatalf("overlay = %d, want 60", rec.GCDeferred)
	}
	if rec.GCChip != 3 || rec.GCCollisions != 1 || rec.GCLeaseHits != 1 || rec.GCForced != 1 {
		t.Fatalf("gc annotations = %+v", rec)
	}
	if tr.Overruns() != 0 {
		t.Fatalf("overruns = %d, want 0", tr.Overruns())
	}
	if !strings.Contains(tr.Explain("latency"), "device") {
		t.Fatalf("Explain missing device stage: %q", tr.Explain("latency"))
	}
}

// TestSpanOverrun: stamping more stage time than the span lived is
// surfaced as an overrun, not hidden in a negative remainder.
func TestSpanOverrun(t *testing.T) {
	tr := NewTracer(2)
	sp := tr.Open("latency", "get", 0)
	sp.Stamp(StageDevice, 2000)
	sp.Close(1000, nil)
	if tr.Overruns() != 1 {
		t.Fatalf("overruns = %d, want 1", tr.Overruns())
	}
	rec := tr.Slowest("latency")[0]
	if rec.Stages[StageServe] != 0 {
		t.Fatalf("serve remainder = %d, want 0 on overrun", rec.Stages[StageServe])
	}
}

// TestErroredSpansNotAggregated: error closes count but do not become
// latency samples.
func TestErroredSpansNotAggregated(t *testing.T) {
	tr := NewTracer(2)
	tr.Open("latency", "get", 0).Close(100, errors.New("rejected"))
	if tr.Opened() != 1 || tr.Closed() != 1 || tr.errored != 1 {
		t.Fatalf("counts = %d/%d/%d", tr.Opened(), tr.Closed(), tr.errored)
	}
	if h := tr.TotalHist("latency"); h != nil && h.Count() != 0 {
		t.Fatalf("errored span recorded into aggregates")
	}
}

// TestNilSafety: every hook must be a no-op on a nil tracer/span —
// that is the tracing-off fast path.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Open("latency", "get", 0)
	if sp != nil {
		t.Fatal("nil tracer opened a span")
	}
	sp.MarkArrived(1)
	sp.Stamp(StageSched, 1)
	sp.NoteIO()
	sp.NoteGCDeferred(1)
	sp.NoteGC(0, true, true, 1)
	sp.NoteSteered(true)
	sp.Close(1, nil)
	tr.Bind(nil, nil)
	tr.Unbind(nil)
	if tr.At(nil) != nil {
		t.Fatal("nil tracer bound a span")
	}
	tr.Reset()
	if tr.Opened() != 0 || tr.Snapshot().Classes != nil || tr.Explain("x") != "" {
		t.Fatal("nil tracer not inert")
	}
}

// TestRingEviction: the flight recorder keeps the true slowest-N under
// out-of-order arrival and eviction pressure.
func TestRingEviction(t *testing.T) {
	tr := NewTracer(4)
	totals := []sim.Time{300, 900, 100, 700, 500, 1100, 200, 800}
	for _, total := range totals {
		sp := tr.Open("latency", "get", 0)
		sp.Close(total, nil)
	}
	recs := tr.Slowest("latency")
	if len(recs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recs))
	}
	want := []sim.Time{1100, 900, 800, 700}
	for i, rec := range recs {
		if rec.Total != want[i] {
			t.Fatalf("ring[%d].Total = %d, want %d (ring %v)", i, rec.Total, want[i], recs)
		}
	}
	rec, ok := tr.AtQuantile("latency", 0.99)
	if !ok || rec.Total != 1100 {
		t.Fatalf("AtQuantile(0.99) = %v/%v, want slowest span", rec.Total, ok)
	}
}

// TestRegistry: attached sources export as one JSON document; Attach
// replaces by name.
func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Attach("alpha", func() any { return map[string]int{"x": 1} })
	reg.Attach("beta", func() any { return "old" })
	reg.Attach("beta", func() any { return "new" })
	doc := reg.Export()
	if len(doc) != 2 || doc["beta"] != "new" {
		t.Fatalf("export = %v", doc)
	}
	raw, err := reg.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back["beta"] != "new" {
		t.Fatalf("round-trip = %v", back)
	}
	var nilReg *Registry
	nilReg.Attach("x", func() any { return 1 })
	if nilReg.Export() != nil {
		t.Fatal("nil registry not inert")
	}
}

// TestSnapshotShares: snapshot stage shares sum to ~100% of the mean.
func TestSnapshotShares(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 50; i++ {
		sp := tr.Open("latency", "get", 0)
		sp.Stamp(StageSched, sim.Time(30*i))
		sp.Stamp(StageDevice, sim.Time(60*i))
		sp.Close(sim.Time(100*i), nil)
	}
	snap := tr.Snapshot()
	if len(snap.Classes) != 1 {
		t.Fatalf("classes = %d", len(snap.Classes))
	}
	var share float64
	for _, st := range snap.Classes[0].Stages {
		share += st.SharePct
	}
	if share < 95 || share > 105 {
		t.Fatalf("stage shares sum to %.1f%%, want ~100%%", share)
	}
	if len(snap.Classes[0].Slowest) != 4 {
		t.Fatalf("snapshot ring = %d, want 4", len(snap.Classes[0].Slowest))
	}
}
