package serve

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestBatchedFabricServesCorrectly(t *testing.T) {
	withFabric(t, baseConfig(4), func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 64, 32)
		for i := int64(0); i < 64; i++ {
			if err := fe.Put(p, i, fe.valueFor(i, 0)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		for i := int64(0); i < 64; i++ {
			sh := shardFor(fe, fe.Key(i))
			got, err := sh.System().Store.Get(p, fe.Key(i))
			if err != nil || !bytes.Equal(got, fe.valueFor(i, 0)) {
				t.Fatalf("key %d on %s: %q %v", i, sh.Name(), got, err)
			}
		}
		if f.Errors != 0 {
			t.Errorf("engine errors: %d", f.Errors)
		}
	})
}

// TestBatchedPutsGroupCommit checks the tentpole plumbing end to end:
// concurrent puts landing in one shard's admission ring are drained as
// a batch and committed through kvstore.ApplyBatch — many keys, one
// group commit — and every done callback fires exactly once.
func TestBatchedPutsGroupCommit(t *testing.T) {
	cfg := baseConfig(1)
	cfg.WorkersPerShard = 1
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 64, 32)
		const n = 48
		wg := sim.NewWaitGroup(p.Engine())
		wg.Add(n)
		fired := make([]int, n)
		for i := 0; i < n; i++ {
			i := i
			fe.Submit(Op{Kind: OpPut, Key: fe.Key(int64(i % 64)), Value: fe.valueFor(int64(i), 0), Class: sched.Throughput},
				func(err error) {
					fired[i]++
					if err != nil {
						t.Errorf("put %d: %v", i, err)
					}
					wg.Done()
				})
		}
		wg.Wait(p)
		for i, c := range fired {
			if c != 1 {
				t.Fatalf("put %d: done fired %d times", i, c)
			}
		}
		st := f.Shards()[0].System().Store
		if st.BatchCommits == 0 {
			t.Fatal("no batch commits: puts never grouped through ApplyBatch")
		}
		if st.BatchOps <= st.BatchCommits {
			t.Fatalf("batch ops %d / commits %d: no amortization", st.BatchOps, st.BatchCommits)
		}
	})
}

// TestBatchedSpanClosureCounts is E20's invariant under batching: with
// tracing on and a driven mix over batched drains, every opened span is
// closed and no span's stage accounting overruns its end-to-end time.
func TestBatchedSpanClosureCounts(t *testing.T) {
	cfg := baseConfig(4)
	cfg.Telemetry = true
	cfg.Admission = AdmissionConfig{Enabled: true, QueueLimit: 12, Rate: 6000, Burst: 32}
	var fab *Fabric
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fab = f
		fe := NewFrontend(f, 256, 32)
		if err := fe.Preload(p); err != nil {
			t.Fatalf("preload: %v", err)
		}
		f.ResetStats()
		lat := metrics.NewTenantLatencies()
		specs := []workload.TenantSpec{
			{Name: "readers", LatencySensitive: true, Weight: 2, Pattern: workload.RR, Depth: 4, Seed: 11},
			{Name: "writers", Weight: 1, Pattern: workload.RW, Depth: 8, Seed: 12},
		}
		horizon := p.Now() + 10*sim.Millisecond
		if err := fe.Drive(specs, horizon, lat); err != nil {
			t.Fatalf("drive: %v", err)
		}
		// Drive returns immediately; hold the fabric open through the
		// window (withFabric stops it with drain when fn returns, so
		// every admitted request still settles and closes its span).
		p.Sleep(horizon - p.Now())
	})
	// Assert after the engine drains: in-flight spans have closed.
	opened, closed, overruns := fab.Tracer().Opened(), fab.Tracer().Closed(), fab.Tracer().Overruns()
	if opened == 0 {
		t.Fatal("no spans opened")
	}
	if opened != closed {
		t.Fatalf("span leak under batching: opened %d, closed %d", opened, closed)
	}
	if overruns != 0 {
		t.Fatalf("%d span stage overruns under batching", overruns)
	}
	if fab.stats.Totals().Served == 0 {
		t.Fatal("nothing served")
	}
}

// TestBatchedAdmissionRejectsPreserved is E16's contract under batched
// drains: overload still answers "no" at admission, the ledger stays
// consistent, and the queue high-water never exceeds the limit.
func TestBatchedAdmissionRejectsPreserved(t *testing.T) {
	cfg := baseConfig(1)
	cfg.WorkersPerShard = 1
	cfg.Admission = AdmissionConfig{Enabled: true, QueueLimit: 4}
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 16, 32)
		const n = 50
		wg := sim.NewWaitGroup(p.Engine())
		wg.Add(n)
		rejects := 0
		for i := 0; i < n; i++ {
			fe.Submit(Op{Kind: OpPut, Key: fe.Key(int64(i % 16)), Value: fe.valueFor(0, 0), Class: sched.Throughput},
				func(err error) {
					if errors.Is(err, ErrRejected) {
						rejects++
					}
					wg.Done()
				})
		}
		wg.Wait(p)
		st := f.Stats().Shard("shard0")
		if st.MaxQueue > 4 {
			t.Errorf("queue high-water %d exceeds limit 4", st.MaxQueue)
		}
		if st.Rejected == 0 || rejects != int(st.Rejected) {
			t.Errorf("rejects: callback saw %d, stats say %d (want > 0, equal)", rejects, st.Rejected)
		}
		if st.Admitted+st.Rejected != st.Submitted || st.Submitted != n {
			t.Errorf("admission ledger inconsistent: %+v", *st)
		}
	})
}

// TestBatchOfOneMatchesDefaultAdmission is the serving-side parity
// contract: batch size only changes who pays fixed costs. The same
// one-instant burst against a bounded queue and a token bucket is
// admitted and rejected request for request the same with workers
// draining one op at a time (MaxOps 1) as with the default batch, and
// both close every span they open without a stage overrun.
func TestBatchOfOneMatchesDefaultAdmission(t *testing.T) {
	const n = 50
	burst := func(maxOps int) (rejected [n]bool, opened, closed, overruns int64) {
		cfg := baseConfig(1)
		cfg.WorkersPerShard = 1
		cfg.Telemetry = true
		cfg.Batch.MaxOps = maxOps
		cfg.Admission = AdmissionConfig{Enabled: true, QueueLimit: 12, Rate: 6000, Burst: 8}
		var fab *Fabric
		withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
			fab = f
			fe := NewFrontend(f, 16, 32)
			wg := sim.NewWaitGroup(p.Engine())
			wg.Add(n)
			for i := 0; i < n; i++ {
				i := i
				kind := OpPut
				if i%3 == 0 {
					kind = OpGet
				}
				fe.Submit(Op{Kind: kind, Key: fe.Key(int64(i % 16)), Value: fe.valueFor(0, 0), Class: sched.Throughput},
					func(err error) {
						switch {
						case errors.Is(err, ErrRejected):
							rejected[i] = true
						case err != nil:
							t.Errorf("MaxOps %d: op %d: %v", maxOps, i, err)
						}
						wg.Done()
					})
			}
			wg.Wait(p)
			if st := f.Stats().Shard("shard0"); st.Admitted+st.Rejected != n || st.Served != st.Admitted {
				t.Errorf("MaxOps %d: admission ledger inconsistent: %+v", maxOps, *st)
			}
		})
		tr := fab.Tracer()
		return rejected, tr.Opened(), tr.Closed(), tr.Overruns()
	}
	rej1, opened1, closed1, over1 := burst(1)
	rej8, opened8, closed8, over8 := burst(0)
	if rej1 != rej8 {
		t.Fatalf("admitted prefix differs:\n  MaxOps 1: %v\n  default:  %v", rej1, rej8)
	}
	if rej1[0] || !rej1[n-1] {
		t.Fatalf("burst neither admitted its head nor rejected its tail: %v", rej1)
	}
	if opened1 != n || opened8 != n {
		t.Fatalf("spans opened: %d (MaxOps 1) and %d (default), want %d each", opened1, opened8, n)
	}
	if closed1 != opened1 || closed8 != opened8 {
		t.Fatalf("span leak: MaxOps 1 closed %d of %d, default closed %d of %d", closed1, opened1, closed8, opened8)
	}
	if over1 != 0 || over8 != 0 {
		t.Fatalf("span stage overruns: %d (MaxOps 1), %d (default)", over1, over8)
	}
}

// TestServiceSampleExcludesBatchPredecessors pins what adaptive
// admission predicts from: each group of a drained batch records its
// own service time, not the time its predecessors in the batch took
// (predictMiss multiplies the sample by queue length, so a sample that
// already contains the queue ahead over-drops). One idle worker drains
// the three ops as one batch of two groups, a get and a run of puts, in
// either order; the groups run back to back, so their two samples must
// add up to exactly the batch's elapsed time.
func TestServiceSampleExcludesBatchPredecessors(t *testing.T) {
	get := Op{Kind: OpGet, Class: sched.LatencySensitive}
	put := Op{Kind: OpPut, Class: sched.Throughput}
	for name, ops := range map[string][]Op{"get-put-put": {get, put, put}, "put-put-get": {put, put, get}} {
		cfg := baseConfig(1)
		cfg.WorkersPerShard = 1
		cfg.Admission = AdmissionConfig{Enabled: true, Adaptive: true}
		withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
			fe := NewFrontend(f, 16, 32)
			drained := p.Now() // the idle worker wakes in this instant
			var settled sim.Time
			wg := sim.NewWaitGroup(p.Engine())
			wg.Add(len(ops))
			for i, op := range ops {
				op.Key, op.Value = fe.Key(int64(i)), fe.valueFor(int64(i), 0)
				fe.Submit(op, func(err error) {
					if err != nil {
						t.Errorf("%s: %v", name, err)
					}
					settled = f.Engine().Now()
					wg.Done()
				})
			}
			wg.Wait(p)
			svc := f.Shards()[0].svc
			lat, tp := svc.Class(sched.LatencySensitive.String()), svc.Class(sched.Throughput.String())
			if lat.Count() != 1 || tp.Count() != 2 {
				t.Errorf("%s: %d latency and %d throughput samples, want 1 and 2", name, lat.Count(), tp.Count())
				return
			}
			// The first sample seeds a class's EWMA exactly, and the two
			// puts share one group and so one sample value.
			getSvc, putSvc := sim.Time(lat.EWMA()), sim.Time(tp.EWMA())
			if getSvc <= 0 || putSvc <= 0 || getSvc+putSvc != settled-drained {
				t.Errorf("%s: get sample %v + put-group sample %v != batch time %v: a sample includes another group's service",
					name, getSvc, putSvc, settled-drained)
			}
		})
	}
}

// TestServeBatchCommitsOnePutGroup: however a drain interleaves its
// puts with reads, the puts commit as one group — one log append run,
// one sync — after the reads are served, and puts on one key still land
// in arrival order. A get queued behind a put on its own key is served
// before that put all the same: read-your-write holds from the put's
// ack, not from its submission, even on a one-worker shard.
func TestServeBatchCommitsOnePutGroup(t *testing.T) {
	cfg := baseConfig(1)
	cfg.WorkersPerShard = 1
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 64, 32)
		sh := f.Shards()[0]
		st := sh.System().Store
		commits, batches, batchOps := st.Commits, st.BatchCommits, st.BatchOps

		// One instant, one idle worker: the six ops are one drain.
		drain := []Op{
			{Kind: OpPut, Key: fe.Key(1), Value: []byte("first")},
			{Kind: OpGet, Key: fe.Key(7)},
			{Kind: OpPut, Key: fe.Key(2), Value: []byte("two")},
			{Kind: OpPut, Key: fe.Key(1), Value: []byte("second")},
			{Kind: OpGet, Key: fe.Key(1)}, // behind two un-acked puts on its key
			{Kind: OpPut, Key: fe.Key(1), Value: []byte("third")},
		}
		wg := sim.NewWaitGroup(p.Engine())
		wg.Add(len(drain))
		var settled []int
		for i, op := range drain {
			op.Class = sched.Throughput
			sh.Submit(op, func(err error) {
				if err != nil {
					t.Errorf("op %d: %v", i, err)
				}
				if op.Kind == OpGet && st.Commits != commits {
					t.Errorf("get %d served after %d commit(s) of its drain, want the store as it was before the drain", i, st.Commits-commits)
				}
				settled = append(settled, i)
				wg.Done()
			})
		}
		wg.Wait(p)

		if got := st.Commits - commits; got != 1 {
			t.Errorf("drain [p g p p g p] took %d commits, want 1", got)
		}
		if got, ops := st.BatchCommits-batches, st.BatchOps-batchOps; got != 1 || ops != 4 {
			t.Errorf("%d batch commits carrying %d ops, want 1 carrying 4", got, ops)
		}
		if want := []int{1, 4, 0, 2, 3, 5}; !slices.Equal(settled, want) {
			t.Errorf("ops settled in order %v, want the gets then the puts, each in arrival order: %v", settled, want)
		}
		if got, err := st.Get(p, fe.Key(1)); err != nil || string(got) != "third" {
			t.Errorf("key 1 holds %q (%v) after three puts in one drain, want the last to arrive", got, err)
		}
		if got, err := st.Get(p, fe.Key(2)); err != nil || string(got) != "two" {
			t.Errorf("key 2 holds %q (%v)", got, err)
		}
	})
}

// TestWorkerServesNextDrainWhileItsPutsSync: a worker hands its drain's
// put group to the log writer and goes on — a get arriving while that
// group's sync is still in flight is served by the same (only) worker
// and settles first, and the put then settles once durable.
func TestWorkerServesNextDrainWhileItsPutsSync(t *testing.T) {
	cfg := baseConfig(1)
	cfg.WorkersPerShard = 1
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 16, 32)
		if err := fe.Put(p, 1, fe.valueFor(1, 0)); err != nil {
			t.Fatalf("warm-up put: %v", err)
		}
		sh := f.Shards()[0]
		var order []string
		var putAt, getAt sim.Time
		wg := sim.NewWaitGroup(p.Engine())
		wg.Add(2)
		sh.Submit(Op{Kind: OpPut, Key: fe.Key(2), Value: fe.valueFor(2, 0), Class: sched.Throughput}, func(err error) {
			if err != nil {
				t.Errorf("put: %v", err)
			}
			order, putAt = append(order, "put"), p.Engine().Now()
			wg.Done()
		})
		// The put's drain is handed off within a few µs; its sync (a log
		// page write plus a flush) takes far longer.
		p.Sleep(20 * sim.Microsecond)
		asked := p.Now()
		sh.Submit(Op{Kind: OpGet, Key: fe.Key(1), Class: sched.LatencySensitive}, func(err error) {
			if err != nil {
				t.Errorf("get: %v", err)
			}
			order, getAt = append(order, "get"), p.Engine().Now()
			wg.Done()
		})
		wg.Wait(p)
		if !slices.Equal(order, []string{"get", "put"}) {
			t.Fatalf("settled %v, want the get served while the put's sync was in flight", order)
		}
		if getAt-asked >= putAt-asked {
			t.Errorf("get took %v, put still needed %v after the get arrived", getAt-asked, putAt-asked)
		}
		if got, err := sh.System().Store.Get(p, fe.Key(2)); err != nil || !bytes.Equal(got, fe.valueFor(2, 0)) {
			t.Errorf("acked put reads back %q (%v)", got, err)
		}
	})
}
