package blockdev

import (
	"fmt"
	"slices"
	"testing"

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

// cmdLogDev is fixedDev recording the commands it is issued, in order.
type cmdLogDev struct {
	fixedDev
	cmds []string
}

func (d *cmdLogDev) Write(lpn int64, data []byte, done func(error)) {
	d.cmds = append(d.cmds, fmt.Sprintf("write %d", lpn))
	d.fixedDev.Write(lpn, data, done)
}

func (d *cmdLogDev) Read(lpn int64, done func([]byte, error)) {
	d.cmds = append(d.cmds, fmt.Sprintf("read %d", lpn))
	d.fixedDev.Read(lpn, done)
}

func (d *cmdLogDev) Flush(done func()) {
	d.cmds = append(d.cmds, "flush")
	d.fixedDev.Flush(done)
}

// TestQueuedFlushesMerge: two flushes queued behind a full depth gate
// become one device flush that completes both, after the writes each
// submitter had acknowledged; a flush submitted once that flush is
// issued is not merged into it and reaches the device on its own.
func TestQueuedFlushesMerge(t *testing.T) {
	eng := sim.NewEngine()
	dev := &cmdLogDev{fixedDev: fixedDev{eng: eng, readLat: 50 * sim.Microsecond, writeLat: 10 * sim.Microsecond}}
	s, err := New(eng, dev, Config{Mode: MultiQueue, CPUs: 2, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	var acked, flushed [3]sim.Time
	for i := 0; i < 2; i++ {
		s.Submit(i, Request{Op: OpWrite, LPN: int64(i), Done: func(_ []byte, err error) {
			if err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			acked[i] = eng.Now()
		}})
	}
	eng.Run()
	flush := func(i int) {
		s.Submit(i%2, Request{Op: OpFlush, Done: func(_ []byte, err error) {
			if err != nil {
				t.Errorf("flush %d: %v", i, err)
			}
			if flushed[i] != 0 {
				t.Errorf("flush %d completed twice", i)
			}
			flushed[i] = eng.Now()
		}})
	}
	// A read holds the only device slot while both flushes queue behind it.
	s.Submit(0, Request{Op: OpRead, LPN: 9})
	flush(0)
	flush(1)
	// Once the merged flush is at the device, a third one queues anew.
	eng.Schedule(eng.Now()+70*sim.Microsecond, func() { flush(2) })
	eng.Run()

	want := []string{"write 0", "write 1", "read 9", "flush", "flush"}
	if !slices.Equal(dev.cmds, want) {
		t.Fatalf("device saw %v, want %v", dev.cmds, want)
	}
	if flushed[0] == 0 || flushed[0] != flushed[1] {
		t.Errorf("merged flushes completed at %v and %v, want together", flushed[0], flushed[1])
	}
	for i := 0; i < 2; i++ {
		if flushed[i] <= acked[1] {
			t.Errorf("flush %d completed at %v, not after the writes acknowledged at %v", i, flushed[i], acked)
		}
	}
	if flushed[2] <= flushed[0] {
		t.Errorf("flush submitted after the merged one was issued completed at %v, want after it (%v)", flushed[2], flushed[0])
	}
	if s.Submitted != 6 || s.Completed != 6 {
		t.Errorf("submitted = %d, completed = %d; want 6 each (a joined flush completes)", s.Submitted, s.Completed)
	}
}
