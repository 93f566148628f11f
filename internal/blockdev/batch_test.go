package blockdev

import (
	"errors"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// batchStack builds a default stack over the fast PCM device.
func batchStack(t *testing.T, eng *sim.Engine, mode Mode) *Stack {
	t.Helper()
	s, err := New(eng, fastDev(t, eng), DefaultConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSubmitBatchRoundTrip(t *testing.T) {
	for _, mode := range []Mode{SingleQueue, MultiQueue, Direct} {
		t.Run(mode.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			s := batchStack(t, eng, mode)
			const n = 24
			eng.Go(func(p *sim.Proc) {
				writes := make([]Request, n)
				for i := range writes {
					data := make([]byte, s.Device().PageSize())
					data[0] = byte(i + 1)
					writes[i] = Request{Op: OpWrite, LPN: int64(i), Data: data}
				}
				if err := s.SubmitBatchSync(p, 0, writes); err != nil {
					t.Errorf("batch write: %v", err)
				}
				reads := make([]Request, n)
				got := make([][]byte, n)
				for i := range reads {
					i := i
					reads[i] = Request{Op: OpRead, LPN: int64(i), Done: func(d []byte, err error) { got[i] = d }}
				}
				if err := s.SubmitBatchSync(p, 1, reads); err != nil {
					t.Errorf("batch read: %v", err)
				}
				for i := range got {
					if len(got[i]) == 0 || got[i][0] != byte(i+1) {
						t.Fatalf("lpn %d: round trip failed", i)
					}
				}
			})
			eng.Run()
			if s.Submitted != 2*n || s.Completed != 2*n {
				t.Fatalf("submitted=%d completed=%d, want %d each", s.Submitted, s.Completed, 2*n)
			}
		})
	}
}

// TestSubmitBatchAdmission checks that a batch overflowing a tenant's
// scheduler queue limit fails exactly the overflow with ErrQueueLimit,
// every Done fires exactly once, and the reject ledger matches.
func TestSubmitBatchAdmission(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(MultiQueue)
	cfg.QueueDepth = 1
	s, err := New(eng, fastDev(t, eng), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := sched.New(eng, sched.DefaultConfig())
	s.AttachScheduler(sc)
	tn := sc.AddTenant("t", sched.Throughput, 1)
	tn.SetQueueLimit(8)

	const n = 20
	outcomes := make([]int, n) // per request: done-called count
	var rejected int
	reqs := make([]Request, n)
	for i := range reqs {
		i := i
		data := make([]byte, s.Device().PageSize())
		reqs[i] = Request{Op: OpWrite, LPN: int64(i), Data: data, Tenant: tn, Done: func(_ []byte, err error) {
			outcomes[i]++
			if errors.Is(err, ErrQueueLimit) {
				rejected++
			} else if err != nil {
				t.Errorf("req %d: %v", i, err)
			}
		}}
	}
	eng.Go(func(p *sim.Proc) { s.SubmitBatch(0, reqs) })
	eng.Run()
	for i, c := range outcomes {
		if c != 1 {
			t.Fatalf("req %d: done fired %d times", i, c)
		}
	}
	// QueueDepth 1 means at most 1 in flight + 8 queued admitted from
	// the batch; the batch lands in one instant, so the overflow is
	// n - queueLimit - anything pumped before the batch finished
	// enqueueing. EnqueueBatch admits per tenant-run in one pass, so
	// exactly queueLimit are admitted and the rest reject.
	if rejected != n-8 || tn.Rejected != int64(n-8) {
		t.Fatalf("rejected=%d tenant.Rejected=%d, want %d", rejected, tn.Rejected, n-8)
	}
	if s.Completed != 8 {
		t.Fatalf("completed=%d, want 8", s.Completed)
	}
}

// TestBatchSubmitCheaperCPU is the amortization claim at the stack
// boundary: the same op stream costs less submitting-core busy time as
// one SubmitBatch(N) per round than as N batches of one.
func TestBatchSubmitCheaperCPU(t *testing.T) {
	run := func(batch bool) sim.Time {
		eng := sim.NewEngine()
		s := batchStack(t, eng, SingleQueue)
		eng.Go(func(p *sim.Proc) {
			for round := 0; round < 8; round++ {
				reqs := make([]Request, 16)
				for i := range reqs {
					data := make([]byte, s.Device().PageSize())
					reqs[i] = Request{Op: OpWrite, LPN: int64(i), Data: data}
				}
				if batch {
					if err := s.SubmitBatchSync(p, 0, reqs); err != nil {
						t.Errorf("batch: %v", err)
					}
					continue
				}
				for i := range reqs {
					if err := s.SubmitBatchSync(p, 0, reqs[i:i+1]); err != nil {
						t.Errorf("batch of one: %v", err)
					}
				}
			}
		})
		eng.Run()
		return s.CPUBusy()
	}
	ones := run(false)
	batched := run(true)
	if batched >= ones {
		t.Fatalf("batched CPU %v not below batch-of-one CPU %v", batched, ones)
	}
}

// TestSubmitIsBatchOfOne pins the wrapper: Stack.Submit and
// SubmitBatch of a single request charge the same core time and
// complete at the same instant, on every mode, and that charge is the
// mode's full per-request cost with no batch discount.
func TestSubmitIsBatchOfOne(t *testing.T) {
	for _, mode := range []Mode{SingleQueue, MultiQueue, Direct} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(submit func(s *Stack, r Request)) (cpu, done sim.Time) {
				eng := sim.NewEngine()
				s := batchStack(t, eng, mode)
				data := make([]byte, s.Device().PageSize())
				submit(s, Request{Op: OpWrite, LPN: 3, Data: data, Done: func(_ []byte, err error) {
					if err != nil {
						t.Errorf("write: %v", err)
					}
					done = eng.Now()
				}})
				eng.Run()
				if s.Submitted != 1 || s.Completed != 1 {
					t.Errorf("submitted=%d completed=%d, want 1 each", s.Submitted, s.Completed)
				}
				return s.CPUBusy(), done
			}
			cpu1, done1 := run(func(s *Stack, r Request) { s.Submit(0, r) })
			cpuB, doneB := run(func(s *Stack, r Request) { s.SubmitBatch(0, []Request{r}) })
			if cpu1 != cpuB || done1 != doneB {
				t.Fatalf("Submit (cpu %v, done %v) != SubmitBatch of one (cpu %v, done %v)", cpu1, done1, cpuB, doneB)
			}
			want := submitCost + completeCost
			switch mode {
			case Direct:
				want = 2 * directCost
			case SingleQueue:
				want += lockHold
			}
			if cpu1 != want || done1 == 0 {
				t.Fatalf("one request cost %v CPU (done at %v), want the full per-request %v", cpu1, done1, want)
			}
		})
	}
}
