package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/sim"
)

// window is one pass of a workload: a freshly built engine, device and
// (for kv workloads) fabric, preconditioned to steady state and ready
// to be loaded. Nothing in it is shared with another pass.
type window struct {
	eng *sim.Engine
	// arm opens the window: the load is already running (set-up warmed
	// the system with it and stopped stepping mid-flight), so arm only
	// resets the layers' own latency ledgers. The load is a fixed number
	// of operations, so the engine drains on its own once the last one
	// completes.
	arm func()
	// snap reads every layer's cumulative counters through public
	// accessors. It charges no virtual time.
	snap func() counters
	// finish runs after the engine drained: it settles the load
	// generator's ledger and runs the workload's correctness checks
	// (which may step the engine further).
	finish func() (*virt, error)
	// close stops what the window left running (fabric workers).
	close func()
}

// virt is what the load generator saw on the virtual clock.
type virt struct {
	// attempted counts operations; an operation refused at admission is
	// retried after a back-off until it is served, so completed falls
	// short of attempted only when an op errors or is dropped.
	// submissions counts every try, refused ones included.
	attempted, completed, failed int64
	submissions                  int64
	// queueSeen sums the admission-queue length each submission found.
	queueSeen  int64
	start, end sim.Time
	// Latencies in virtual ns, timed from the instant the op was due.
	readLat, writeLat []int64
	// inSLO counts completed ops that met their class deadline.
	inSLO int64
	// userBytes is what the clients asked to have written.
	userBytes  int64
	gets, puts int64 // completed, for per-op-kind layer ratios
	// backlog sums, over the arrivals of each half of the window, the
	// ops issued and not yet settled that the arrival found; arrivals
	// counts them. An open loop past its knee shows a growing backlog.
	backlog, arrivals [2]int64
	// mid and last are the layer counters when half and when all of the
	// ops had settled. The window's ledger closes at last, not after the
	// engine drained: the drain flushes buffers and banks free blocks,
	// work that belongs to no op in the window.
	mid, last counters
	// checks names the correctness checks the window passed.
	checks []string
}

// hostPass is what one pass cost on the wall clock.
type hostPass struct {
	setupNs  int64
	segments []int64 // wall ns per segmentEvents events
	events   int64
	// Deltas of runtime.MemStats over the timed window.
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	liveHeap       uint64 // HeapAlloc after a forced GC at window end
}

// passResult is one pass, both clocks.
type passResult struct {
	v      *virt
	before counters
	after  counters
	host   hostPass
	// e2e is the virtual-clock end-to-end metrics, derived as soon as
	// the pass ends so its latency samples can be released: a later pass
	// must not mark a bigger heap than an earlier one.
	e2e []metric
}

// stepTimed owns the event loop for the timed window: it steps the
// engine until it drains and stamps the wall clock every segmentEvents
// events.
func stepTimed(eng *sim.Engine) (int64, []int64) {
	var events int64
	segs := make([]int64, 0, 1024)
	t0 := time.Now()
	last := int64(0)
	for eng.Step() {
		events++
		if events&(segmentEvents-1) == 0 {
			now := int64(time.Since(t0))
			segs = append(segs, now-last)
			last = now
		}
	}
	if events&(segmentEvents-1) != 0 {
		segs = append(segs, int64(time.Since(t0))-last)
	}
	return events, segs
}

// drain steps the engine until no events remain (untimed phases).
func drain(eng *sim.Engine) {
	for eng.Step() {
	}
}

// runPass builds one window, times its set-up, runs the timed loop and
// collects both clocks. With a profile path the timed loop runs under
// the CPU profiler.
func runPass(b builder, seed uint64, sz sizing, tr *tracer, profile string) (*passResult, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := b(seed, sz, tr)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	defer w.close()

	res := &passResult{}
	res.host.setupNs = int64(setup)
	w.arm()
	before := w.snap()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stopProfile := func() error { return nil }
	if profile != "" {
		if stopProfile, err = startProfile(profile); err != nil {
			return nil, err
		}
	}
	res.host.events, res.host.segments = stepTimed(w.eng)
	if err := stopProfile(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	res.host.mallocs = m1.Mallocs - m0.Mallocs
	res.host.bytes = m1.TotalAlloc - m0.TotalAlloc
	res.host.gcCycles = m1.NumGC - m0.NumGC
	res.host.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.host.liveHeap = m1.HeapAlloc

	res.v, err = w.finish()
	if err != nil {
		return nil, err
	}
	res.before, res.after = before, res.v.last
	res.e2e = endToEndVirtual(res)
	res.v.readLat, res.v.writeLat = nil, nil
	return res, nil
}

// runResult is one run: k passes of the same seeded workload.
type runResult struct {
	passes []*passResult
	// hostNs is the segment-minimum estimate of the window's wall time.
	hostNs int64
	// tr holds the first pass's spans on a traced run.
	tr *tracer
}

// run executes k passes and checks that everything on the virtual clock
// — metrics, event counts, op counts, layer counters — is identical in
// every pass.
//
// With traced set every pass records spans into a fresh tracer and the
// first pass's tracer is kept.
func run(wl *workloadDef, seed uint64, sz sizing, k int, traced bool) (*runResult, error) {
	if k < 1 {
		k = 1
	}
	r := &runResult{}
	var print0 string
	for i := 0; i < k; i++ {
		var tr *tracer
		if traced {
			tr = newTracer()
			if i == 0 {
				r.tr = tr
			}
		}
		p, err := runPass(wl.build, seed, sz, tr, "")
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", wl.name, i, err)
		}
		fp := p.fingerprint()
		if i == 0 {
			print0 = fp
		} else if fp != print0 {
			return nil, fmt.Errorf("%s: pass %d is not a repeat of pass 0 on the virtual clock:\n  pass 0: %s\n  pass %d: %s", wl.name, i, print0, i, fp)
		}
		r.passes = append(r.passes, p)
	}
	segs := make([][]int64, len(r.passes))
	for i, p := range r.passes {
		segs[i] = p.host.segments
	}
	r.hostNs = segmentMinSum(segs)
	return r, nil
}

// fingerprint renders everything a pass measured on the virtual clock;
// two passes of one seed must render the same string.
func (p *passResult) fingerprint() string {
	s := fmt.Sprintf("events=%d attempted=%d completed=%d failed=%d span=%d", p.host.events, p.v.attempted, p.v.completed, p.v.failed, p.v.end-p.v.start)
	for _, m := range p.e2e {
		s += fmt.Sprintf(" %s=%x", m.name, math.Float64bits(m.value))
	}
	d := p.after.sub(p.before)
	s += fmt.Sprintf(" nand=%d/%d/%d cpu=%d served=%d", d.nandReads, d.nandPrograms, d.nandErases, d.cpuBusy, d.served)
	return s
}
