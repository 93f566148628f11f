package blockdev

import (
	"testing"

	"repro/internal/pcm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// fastDev builds a PCM SSD so the software stack, not the medium, is the
// bottleneck (the regime the paper cares about).
func fastDev(t *testing.T, eng *sim.Engine) ssd.Dev {
	t.Helper()
	cfg := pcm.DefaultConfig()
	cfg.CapacityBytes = 1 << 22
	d, err := ssd.NewPCMSSD(eng, "fast", 8, 4096, cfg, ssd.PCIe4)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStackReadWriteRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	dev := fastDev(t, eng)
	s, err := New(eng, dev, DefaultConfig(SingleQueue))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, dev.PageSize())
	data[0] = 0x42
	eng.Go(func(p *sim.Proc) {
		if err := s.WriteSyncAs(p, nil, 0, 7, data); err != nil {
			t.Errorf("write: %v", err)
		}
		got, err := s.ReadSync(p, 0, 7)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if got[0] != 0x42 {
			t.Error("round trip failed")
		}
		if err := s.FlushSync(p, 0); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	eng.Run()
	if s.Submitted != 3 || s.Completed != 3 {
		t.Fatalf("submitted=%d completed=%d", s.Submitted, s.Completed)
	}
}

func TestModeStrings(t *testing.T) {
	if SingleQueue.String() != "SingleQueue" || MultiQueue.String() != "MultiQueue" || Direct.String() != "Direct" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should still format")
	}
}

func TestInvalidConfig(t *testing.T) {
	eng := sim.NewEngine()
	dev := fastDev(t, eng)
	if _, err := New(eng, dev, Config{CPUs: 0}); err == nil {
		t.Fatal("zero CPUs accepted")
	}
}

func TestClosedStackRejects(t *testing.T) {
	eng := sim.NewEngine()
	dev := fastDev(t, eng)
	s, err := New(eng, dev, DefaultConfig(Direct))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	var gotErr error
	s.Submit(0, Request{Op: OpRead, LPN: 0, Done: func(_ []byte, err error) { gotErr = err }})
	eng.Run()
	if gotErr != ErrStackClosed {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestQueueDepthBounds(t *testing.T) {
	eng := sim.NewEngine()
	dev := fastDev(t, eng)
	cfg := DefaultConfig(MultiQueue)
	cfg.QueueDepth = 2
	s, err := New(eng, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for i := 0; i < 10; i++ {
		s.Submit(i, Request{Op: OpRead, LPN: int64(i), Done: func([]byte, error) { completed++ }})
	}
	eng.Run()
	if completed != 10 {
		t.Fatalf("completed = %d, want 10 (waitq must drain)", completed)
	}
}

// runClosedLoop measures IOPS with one reader proc per CPU.
func runClosedLoop(t *testing.T, mode Mode, cpus int) float64 {
	t.Helper()
	eng := sim.NewEngine()
	dev := fastDev(t, eng)
	cfg := DefaultConfig(mode)
	cfg.CPUs = cpus
	s, err := New(eng, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 50 * sim.Millisecond
	done := 0
	for c := 0; c < cpus; c++ {
		c := c
		eng.Go(func(p *sim.Proc) {
			rng := sim.NewRNG(uint64(c + 1))
			for p.Now() < horizon {
				if _, err := s.ReadSync(p, c, rng.Int63n(dev.Capacity())); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				done++
			}
		})
	}
	eng.Run()
	return float64(done) / horizon.Seconds()
}

func TestSingleQueueStopsScaling(t *testing.T) {
	iops1 := runClosedLoop(t, SingleQueue, 1)
	iops8 := runClosedLoop(t, SingleQueue, 8)
	// The shared lock must prevent anything near linear scaling.
	if iops8 > 5*iops1 {
		t.Fatalf("single queue scaled %0.fx; lock contention should cap it", iops8/iops1)
	}
}

func TestMultiQueueScalesBetterThanSingle(t *testing.T) {
	sq := runClosedLoop(t, SingleQueue, 8)
	mq := runClosedLoop(t, MultiQueue, 8)
	if mq <= sq {
		t.Fatalf("multi-queue (%.0f IOPS) should beat single queue (%.0f IOPS) at 8 cores", mq, sq)
	}
}

func TestDirectBeatsBlockLayer(t *testing.T) {
	mq := runClosedLoop(t, MultiQueue, 8)
	direct := runClosedLoop(t, Direct, 8)
	if direct <= mq {
		t.Fatalf("direct path (%.0f IOPS) should beat multi-queue (%.0f IOPS)", direct, mq)
	}
}

func TestCompletionChargedToSubmittingCore(t *testing.T) {
	eng := sim.NewEngine()
	dev := fastDev(t, eng)
	s, err := New(eng, dev, DefaultConfig(MultiQueue))
	if err != nil {
		t.Fatal(err)
	}
	eng.Go(func(p *sim.Proc) {
		if _, err := s.ReadSync(p, 2, 0); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	eng.Run()
	if s.CPU(2).Busy() == 0 {
		t.Fatal("core 2 shows no work")
	}
	if s.CPU(0).Busy() != 0 {
		t.Fatal("core 0 shows work it did not do")
	}
}

// TestMultiQueueConcurrentSubmitters drives a MultiQueue stack from
// many cores at once with a shallow device queue, the contention case:
// every request must complete, the depth bound must hold throughout,
// and each submitting core must have done its own submission work.
func TestMultiQueueConcurrentSubmitters(t *testing.T) {
	eng := sim.NewEngine()
	dev := fastDev(t, eng)
	cfg := DefaultConfig(MultiQueue)
	cfg.CPUs = 8
	cfg.QueueDepth = 4
	s, err := New(eng, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const perCore = 50
	completed := make([]int, cfg.CPUs)
	for c := 0; c < cfg.CPUs; c++ {
		c := c
		eng.Go(func(p *sim.Proc) {
			rng := sim.NewRNG(uint64(c + 1))
			for i := 0; i < perCore; i++ {
				if rng.Bool(0.5) {
					if err := s.WriteSyncAs(p, nil, c, rng.Int63n(dev.Capacity()), nil); err != nil {
						t.Errorf("core %d write: %v", c, err)
						return
					}
				} else {
					if _, err := s.ReadSync(p, c, rng.Int63n(dev.Capacity())); err != nil {
						t.Errorf("core %d read: %v", c, err)
						return
					}
				}
				completed[c]++
			}
		})
	}
	eng.Run()
	for c, n := range completed {
		if n != perCore {
			t.Errorf("core %d completed %d/%d", c, n, perCore)
		}
	}
	if s.Submitted != int64(cfg.CPUs*perCore) || s.Completed != s.Submitted {
		t.Fatalf("submitted=%d completed=%d, want %d", s.Submitted, s.Completed, cfg.CPUs*perCore)
	}
	if s.outstanding != 0 || len(s.waitq) != 0 {
		t.Fatalf("queue not drained: outstanding=%d waitq=%d", s.outstanding, len(s.waitq))
	}
	for c := 0; c < cfg.CPUs; c++ {
		if s.CPU(c).Busy() == 0 {
			t.Errorf("core %d shows no submission work", c)
		}
	}
}

// TestMultiQueueDepthNeverExceeded watches the outstanding count from
// completion callbacks under heavy concurrent submission.
func TestMultiQueueDepthNeverExceeded(t *testing.T) {
	eng := sim.NewEngine()
	dev := fastDev(t, eng)
	cfg := DefaultConfig(MultiQueue)
	cfg.CPUs = 8
	cfg.QueueDepth = 3
	s, err := New(eng, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxOut := 0
	done := 0
	for i := 0; i < 200; i++ {
		s.Submit(i, Request{Op: OpRead, LPN: int64(i) % dev.Capacity(), Done: func([]byte, error) {
			done++
			if s.outstanding > maxOut {
				maxOut = s.outstanding
			}
		}})
		if s.outstanding > maxOut {
			maxOut = s.outstanding
		}
	}
	eng.Run()
	if done != 200 {
		t.Fatalf("completed %d/200", done)
	}
	if maxOut > cfg.QueueDepth {
		t.Fatalf("outstanding peaked at %d, depth is %d", maxOut, cfg.QueueDepth)
	}
}

// TestScheduledStackPrioritizesTaggedTenant is the blockdev-level
// integration of package sched: a weighted latency tenant's reads jump
// the queue that untagged FIFO traffic would have to drain.
func TestScheduledStackPrioritizesTaggedTenant(t *testing.T) {
	runOnce := func(scheduled bool) int64 {
		eng := sim.NewEngine()
		dev := fastDev(t, eng)
		cfg := DefaultConfig(MultiQueue)
		cfg.CPUs = 4
		cfg.QueueDepth = 2
		s, err := New(eng, dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var lat, bulk *sched.Tenant
		if scheduled {
			sc := sched.New(eng, sched.DefaultConfig())
			lat = sc.AddTenant("lat", sched.LatencySensitive, 8)
			bulk = sc.AddTenant("bulk", sched.Throughput, 1)
			s.AttachScheduler(sc)
		}
		// Flood with bulk writes, then issue one latency read once the
		// backlog is deep: FIFO makes it drain the queue, the scheduler
		// lets it jump.
		for i := 0; i < 256; i++ {
			s.Submit(0, Request{Op: OpWrite, LPN: int64(i), Tenant: bulk, Done: nil})
		}
		var readDone sim.Time
		eng.Go(func(p *sim.Proc) {
			p.Sleep(30 * sim.Microsecond)
			if _, err := s.ReadSyncAs(p, lat, 1, 0); err != nil {
				t.Errorf("read: %v", err)
			}
			readDone = p.Now()
		})
		eng.Run()
		return int64(readDone)
	}
	fifo := runOnce(false)
	prio := runOnce(true)
	if prio >= fifo {
		t.Fatalf("scheduled read finished at %d, FIFO at %d; scheduling should help", prio, fifo)
	}
}

// TestUntaggedTrafficCannotStarveTenants floods a scheduled stack with
// untagged requests: they must ride the fallback tenant's queue, so a
// tagged tenant keeps making progress alongside them.
func TestUntaggedTrafficCannotStarveTenants(t *testing.T) {
	eng := sim.NewEngine()
	dev := fastDev(t, eng)
	cfg := DefaultConfig(MultiQueue)
	cfg.CPUs = 4
	cfg.QueueDepth = 2
	s, err := New(eng, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := sched.New(eng, sched.DefaultConfig())
	tagged := sc.AddTenant("tagged", sched.Throughput, 1)
	s.AttachScheduler(sc)

	// A closed-loop untagged flood that would monopolize a FIFO queue.
	untaggedDone, taggedDone := 0, 0
	var floodNext func()
	floodNext = func() {
		untaggedDone++
		if untaggedDone < 400 {
			s.Submit(0, Request{Op: OpRead, LPN: 0, Done: func([]byte, error) { floodNext() }})
		}
	}
	for i := 0; i < 8; i++ {
		s.Submit(0, Request{Op: OpRead, LPN: 0, Done: func([]byte, error) { floodNext() }})
	}
	for i := 0; i < 50; i++ {
		s.Submit(1, Request{Op: OpRead, LPN: 1, Tenant: tagged,
			Done: func([]byte, error) { taggedDone++ }})
	}
	eng.Run()
	if taggedDone != 50 {
		t.Fatalf("tagged tenant completed %d/50 under untagged flood", taggedDone)
	}
	if s.fallback.Dispatched == 0 {
		t.Fatal("untagged traffic did not ride the fallback tenant")
	}
}

// fixedDev is a device with exactly known service times, so the cost
// calibrator can be tested against a configured ground truth.
type fixedDev struct {
	eng               *sim.Engine
	readLat, writeLat sim.Time
	m                 ssd.DeviceMetrics
}

func (d *fixedDev) Name() string                { return "fixed" }
func (d *fixedDev) PageSize() int               { return 4096 }
func (d *fixedDev) Capacity() int64             { return 1 << 20 }
func (d *fixedDev) Trim(int64) error            { return nil }
func (d *fixedDev) Flush(done func())           { d.eng.After(d.readLat, done) }
func (d *fixedDev) Metrics() *ssd.DeviceMetrics { return &d.m }
func (d *fixedDev) Read(_ int64, done func([]byte, error)) {
	d.eng.After(d.readLat, func() { done(nil, nil) })
}
func (d *fixedDev) Write(_ int64, _ []byte, done func(error)) {
	d.eng.After(d.writeLat, func() { done(nil) })
}

// driveMixed issues alternating read/write singles so each request's
// observed service time is exactly the device latency (depth 1: no
// queueing inside the device).
func driveMixed(eng *sim.Engine, s *Stack, n int) {
	eng.Go(func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				if _, err := s.ReadSync(p, 0, int64(i)); err != nil {
					panic(err)
				}
			} else {
				if err := s.WriteSyncAs(p, nil, 0, int64(i), nil); err != nil {
					panic(err)
				}
			}
		}
	})
	eng.Run()
}

// TestCostCalibrationConvergesToConfiguredRatio drives a stack over a
// device with a known 6:1 write:read service ratio: the calibrated DRR
// billing must converge to that ratio (within bucket resolution), then
// track the device when it ages mid-run to 15:1 — with the static
// WriteCost seed visible only before the estimator warms up.
func TestCostCalibrationConvergesToConfiguredRatio(t *testing.T) {
	eng := sim.NewEngine()
	dev := &fixedDev{eng: eng, readLat: 50 * sim.Microsecond, writeLat: 300 * sim.Microsecond}
	cfg := DefaultConfig(Direct)
	cfg.WriteCost = 16
	cfg.Calibrate = true
	s, err := New(eng, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed billing before any samples: the static costs.
	if r, w := s.CalibratedCosts(); r != 1 || w != 16 {
		t.Fatalf("seed costs = %d/%d, want 1/16", r, w)
	}
	driveMixed(eng, s, 200)
	r, w := s.CalibratedCosts()
	ratio := float64(w) / float64(r)
	if ratio < 5.0 || ratio > 7.0 {
		t.Fatalf("calibrated ratio = %.2f (%d/%d), want ~6", ratio, w, r)
	}
	// The device ages: writes now cost 15x reads. The EWMA window must
	// pull the billing to the new truth.
	dev.writeLat = 750 * sim.Microsecond
	driveMixed(eng, s, 200)
	r, w = s.CalibratedCosts()
	ratio = float64(w) / float64(r)
	if ratio < 12.0 || ratio > 18.0 {
		t.Fatalf("post-aging ratio = %.2f (%d/%d), want ~15", ratio, w, r)
	}
	if s.ServiceEstimator() == nil {
		t.Fatal("calibrating stack must expose its estimator")
	}
}

// TestCostCalibrationClampsRatio bounds the billing no matter how
// extreme the observed service ratio gets.
func TestCostCalibrationClampsRatio(t *testing.T) {
	eng := sim.NewEngine()
	dev := &fixedDev{eng: eng, readLat: 1 * sim.Microsecond, writeLat: 10 * sim.Millisecond}
	cfg := DefaultConfig(Direct)
	cfg.Calibrate = true
	s, err := New(eng, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveMixed(eng, s, 100)
	r, w := s.CalibratedCosts()
	if got := float64(w) / float64(r); got > maxCostRatio+0.5 {
		t.Fatalf("ratio %.1f exceeds maxCostRatio %d", got, maxCostRatio)
	}
}

// TestGCControlRequiresControllableGC: the GC shaping surface is only
// exposed for devices whose GC the host can actually shape. PCM has no
// GC at all; a 2008 hybrid-FTL device carries the control methods but
// refuses every lease, so wiring it would just spam doomed requests.
func TestGCControlRequiresControllableGC(t *testing.T) {
	eng := sim.NewEngine()
	pcmStack, err := New(eng, fastDev(t, eng), DefaultConfig(Direct))
	if err != nil {
		t.Fatal(err)
	}
	if pcmStack.GCControl() != nil {
		t.Error("PCM SSD exposed a GC control surface")
	}

	legacy, err := ssd.Build(eng, ssd.Consumer2008, ssd.Options{
		Channels: 1, ChipsPerChannel: 2, BlocksPerPlane: 16, PagesPerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	legacyStack, err := New(eng, legacy, DefaultConfig(Direct))
	if err != nil {
		t.Fatal(err)
	}
	if legacyStack.GCControl() != nil {
		t.Error("hybrid-FTL device exposed a GC control surface it can only refuse")
	}

	modern, err := ssd.Build(eng, ssd.Enterprise2012, ssd.Options{
		Channels: 1, ChipsPerChannel: 2, BlocksPerPlane: 16, PagesPerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	modernStack, err := New(eng, modern, DefaultConfig(Direct))
	if err != nil {
		t.Fatal(err)
	}
	if modernStack.GCControl() == nil {
		t.Error("page-mapped device exposed no GC control surface")
	}
	// A scheduler attached to an uncontrollable device must not lease.
	sc := sched.New(eng, sched.Config{GCCoordinate: true})
	legacyStack.AttachScheduler(sc)
	ls := sc.AddTenant("ls", sched.LatencySensitive, 1)
	sc.EnqueueBatch(ls, []sched.Item{{Cost: 1, Dispatch: func() {}}})
	if n := sc.GCCoord().HostRequests; n != 0 {
		t.Errorf("scheduler leased %d deferrals from an uncontrollable device", n)
	}
}
