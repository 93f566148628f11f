package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// arrival is one step of a pre-generated enqueue schedule: a run of
// same-tenant requests landing at one instant. The batched run admits
// it through one EnqueueBatch; the batch-of-one run enqueues the same
// requests one by one.
type arrival struct {
	at     sim.Time
	tenant int
	costs  []int
}

// mkSchedule generates a seeded mix: three tenants (a latency tenant
// and two throughput tenants of unequal weight), runs of 1..4
// requests, costs 1..3.
func mkSchedule(seed int64, n int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	at := sim.Time(0)
	for len(out) < n {
		at += sim.Time(100+rng.Intn(400)) * sim.Nanosecond
		run := 1 + rng.Intn(4)
		costs := make([]int, run)
		for i := range costs {
			costs[i] = 1 + rng.Intn(3)
		}
		out = append(out, arrival{at: at, tenant: rng.Intn(3), costs: costs})
	}
	return out
}

// traceRig drains a scheduler the way blockdev's pump does — NextBatch
// over the free slots, or with batch off NextBatch(1) in a loop — and
// records every dispatch as a (virtual time, tenant, cost) triple.
type traceRig struct {
	eng      *sim.Engine
	sc       *Scheduler
	slots    int
	inflight int
	service  sim.Time
	batch    bool
	trace    []string
}

func (r *traceRig) pump() {
	if r.batch {
		if free := r.slots - r.inflight; free > 0 {
			for _, d := range r.sc.NextBatch(free, nil) {
				d()
			}
		}
		return
	}
	for r.inflight < r.slots {
		d, ok := next(r.sc)
		if !ok {
			return
		}
		d()
	}
}

func (r *traceRig) dispatch(name string, cost int) func() {
	return func() {
		r.inflight++
		r.trace = append(r.trace, fmt.Sprintf("%v %s c%d", r.eng.Now(), name, cost))
		r.eng.After(r.service, func() {
			r.inflight--
			r.pump()
		})
	}
}

// runTrace replays the schedule into a fresh scheduler and returns the
// dispatch trace plus per-tenant (dispatched, enqueued, backlog) state.
// The device reports a GC episode every millisecond (chips collecting
// for the first 300µs), so the GC-aware deferral policy is part of
// what the trace pins.
func runTrace(cfg Config, sched []arrival, batch bool) (trace []string, state []string) {
	eng := sim.NewEngine()
	sc := New(eng, cfg)
	for at := sim.Time(0); at < 50*sim.Millisecond; at += sim.Millisecond {
		eng.Schedule(at, func() { sc.SetGCActiveChips(2) })
		eng.Schedule(at+300*sim.Microsecond, func() { sc.SetGCActiveChips(0) })
	}
	lat := sc.AddTenant("lat", LatencySensitive, 2)
	bulk := sc.AddTenant("bulk", Throughput, 2)
	bg := sc.AddTenant("bg", Throughput, 1)
	tenants := []*Tenant{lat, bulk, bg}
	r := &traceRig{eng: eng, sc: sc, slots: 2, service: 5 * sim.Microsecond, batch: batch}
	sc.SetKick(r.pump)
	for _, a := range sched {
		a := a
		t := tenants[a.tenant]
		eng.After(a.at, func() {
			if batch {
				items := make([]Item, len(a.costs))
				for i, c := range a.costs {
					items[i] = Item{Cost: c, Dispatch: r.dispatch(t.name, c)}
				}
				sc.EnqueueBatch(t, items)
			} else {
				for _, c := range a.costs {
					enqueue(sc, t, c, r.dispatch(t.name, c))
				}
			}
			r.pump()
		})
	}
	eng.RunUntil(50 * sim.Millisecond)
	for _, t := range tenants {
		state = append(state, fmt.Sprintf("%s dispatched=%d enqueued=%d backlog=%d",
			t.name, t.Dispatched, t.Enqueued, t.q.Len()))
	}
	return r.trace, state
}

// TestBatchedDrainMatchesUnbatched is the batch-semantics contract:
// the same seeded arrival mix produces the identical virtual-time
// dispatch trace and the identical DRR fairness outcome whether the
// scheduler is driven in batches of one (one-item EnqueueBatch +
// NextBatch(1) in a loop) or in full batches (EnqueueBatch +
// NextBatch(free)). Batching may only amortize control work — never
// change what is scheduled or when.
func TestBatchedDrainMatchesUnbatched(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		sched := mkSchedule(seed, 800)
		oldTrace, oldState := runTrace(DefaultConfig(), sched, false)
		ringTrace, ringState := runTrace(DefaultConfig(), sched, true)
		if len(oldTrace) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		if len(oldTrace) != len(ringTrace) {
			t.Fatalf("seed %d: %d dispatches in batches of one vs %d batched", seed, len(oldTrace), len(ringTrace))
		}
		for i := range oldTrace {
			if oldTrace[i] != ringTrace[i] {
				t.Fatalf("seed %d: dispatch %d diverged: %q vs %q", seed, i, oldTrace[i], ringTrace[i])
			}
		}
		for i := range oldState {
			if oldState[i] != ringState[i] {
				t.Errorf("seed %d: tenant state diverged:\n  old:  %s\n  ring: %s", seed, oldState[i], ringState[i])
			}
		}
	}
}

// TestZeroSchedConfigIsDefault: the zero Config is the default — a
// caller that spells only the fields it means (Config{GCLeaseAdaptive:
// true}, say) cannot silently lose GC-awareness. The zero value and
// DefaultConfig() must emit the identical dispatch trace on the seeded
// drain, GC episodes included.
func TestZeroSchedConfigIsDefault(t *testing.T) {
	sched := mkSchedule(7, 800)
	zeroTrace, zeroState := runTrace(Config{}, sched, true)
	defTrace, defState := runTrace(DefaultConfig(), sched, true)
	if len(zeroTrace) == 0 || len(zeroTrace) != len(defTrace) {
		t.Fatalf("%d dispatches from the zero config vs %d from DefaultConfig", len(zeroTrace), len(defTrace))
	}
	for i := range zeroTrace {
		if zeroTrace[i] != defTrace[i] {
			t.Fatalf("dispatch %d diverged: zero %q vs default %q", i, zeroTrace[i], defTrace[i])
		}
	}
	for i := range zeroState {
		if zeroState[i] != defState[i] {
			t.Errorf("tenant state diverged:\n  zero:    %s\n  default: %s", zeroState[i], defState[i])
		}
	}
}

// benchPopDepth measures one enqueue+dispatch cycle against a standing
// backlog of the given depth. The head-index ring makes the pop O(1),
// so ns/op must stay flat as the backlog grows 16× — the slice-shift
// dequeue this replaced copied the whole backlog per pop and scaled
// linearly here.
func benchPopDepth(b *testing.B, depth int) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	tn := sc.AddTenant("t", Throughput, 1)
	for i := 0; i < depth; i++ {
		enqueue(sc, tn, 1, func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, ok := next(sc)
		if !ok {
			b.Fatal("backlog drained")
		}
		d()
		enqueue(sc, tn, 1, func() {})
	}
}

func BenchmarkRingPopDepth1k(b *testing.B)  { benchPopDepth(b, 1<<10) }
func BenchmarkRingPopDepth16k(b *testing.B) { benchPopDepth(b, 1<<14) }

// BenchmarkRingDrainBatch measures a full NextBatch drain of 32
// requests against a deep backlog (the pump's per-refill shape).
func BenchmarkRingDrainBatch(b *testing.B) {
	eng := sim.NewEngine()
	sc := New(eng, DefaultConfig())
	tn := sc.AddTenant("t", Throughput, 1)
	for i := 0; i < 1<<14; i++ {
		enqueue(sc, tn, 1, func() {})
	}
	var ds []func()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds = sc.NextBatch(32, ds[:0])
		for _, d := range ds {
			d()
		}
		for range ds {
			enqueue(sc, tn, 1, func() {})
		}
	}
}
