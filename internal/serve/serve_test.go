package serve

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// smallDevice keeps fabric tests fast.
var smallDevice = ssd.Options{Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 48, PagesPerBlock: 16}

// withFabric runs fn in a simulated process over a fresh fabric and
// drains the engine, stopping the fabric afterwards so worker processes
// exit cleanly.
func withFabric(t *testing.T, cfg Config, fn func(p *sim.Proc, f *Fabric)) {
	t.Helper()
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		f, err := New(p, eng, cfg)
		if err != nil {
			t.Errorf("new fabric: %v", err)
			return
		}
		fn(p, f)
		f.Stop(true)
	})
	eng.Run()
}

func baseConfig(shards int) Config {
	return Config{
		Shards:        shards,
		Mode:          blockdev.MultiQueue,
		DeviceOptions: smallDevice,
		Scheduled:     true,
		WriteCost:     16,
		QueueDepth:    4,
	}
}

// TestFabricServesAcrossShards runs with a tenant per shard and with
// the shards sharing each device's untagged tenant: both dispatch
// through the device's scheduler, which is never nil.
func TestFabricServesAcrossShards(t *testing.T) {
	for _, scheduled := range []bool{true, false} {
		cfg := baseConfig(4)
		cfg.Scheduled = scheduled
		t.Run(fmt.Sprintf("scheduled=%v", scheduled), func(t *testing.T) {
			fabricServesAcrossShards(t, cfg)
		})
	}
}

func fabricServesAcrossShards(t *testing.T, cfg Config) {
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		if f.Scheduler(0) == nil {
			t.Fatal("device 0 has no scheduler")
		}
		fe := NewFrontend(f, 64, 32)
		for i := int64(0); i < 64; i++ {
			if err := fe.Put(p, i, fe.valueFor(i, 0)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		for i := int64(0); i < 64; i++ {
			if err := fe.Get(p, i); err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
		}
		if err := scan(p, fe, 0, 8); err != nil {
			t.Fatalf("scan: %v", err)
		}
		// Routing spreads 64 keys over every shard, and each shard's
		// store holds exactly what was routed to it.
		for _, sh := range f.Shards() {
			if sh.stats.Served == 0 {
				t.Errorf("shard %s served nothing", sh.Name())
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

// TestScanStartsAtKey: OpScan reads up to ScanLimit rows from op.Key,
// so scans at two keys of one shard touch two different leaves — each
// leaves its own key's leaf in a cache far too small for the shard, and
// neither looks up more than a descent and a leaf or two.
func TestScanStartsAtKey(t *testing.T) {
	cfg := baseConfig(1)
	cfg.Store = kvstore.Config{CacheFrames: 4, CheckpointBytes: 1 << 30}
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 600, 32)
		for i := int64(0); i < 600; i++ {
			if err := fe.Put(p, i, fe.valueFor(i, 0)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		st := f.Shards()[0].System().Store
		if err := st.Checkpoint(p); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if st.TreeHeight() != 2 {
			t.Fatalf("tree height = %d, want 2", st.TreeHeight())
		}
		cache := st.Cache()
		for _, i := range []int64{20, 310} {
			lookups := cache.Hits + cache.Misses
			if err := scan(p, fe, i, 8); err != nil {
				t.Fatalf("scan at %d: %v", i, err)
			}
			if n := cache.Hits + cache.Misses - lookups; n > 4 {
				t.Errorf("8-row scan at key %d looked up %d pages, want <= 4", i, n)
			}
			misses := cache.Misses
			if err := fe.Get(p, i); err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
			if cache.Misses != misses {
				t.Errorf("get %d right after a scan at that key missed the cache: the scan did not read its leaf", i)
			}
		}
	})
}

func TestAdmissionBoundsQueueAndRejects(t *testing.T) {
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

func TestAdmissionTokenBucketEmptyRejectsImmediately(t *testing.T) {
	cfg := baseConfig(1)
	cfg.Admission = AdmissionConfig{Enabled: true, QueueLimit: 1000, Rate: 1000, Burst: 2}
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 16, 32)
		rejects := 0
		for i := 0; i < 10; i++ {
			fe.Submit(Op{Kind: OpGet, Key: fe.Key(0), Class: sched.LatencySensitive}, func(err error) {
				if errors.Is(err, ErrRejected) {
					rejects++
				}
			})
		}
		// Burst of 2 admitted at t=0; the other 8 find the bucket empty
		// and are rejected on the spot, not queued behind it.
		if rejects != 8 {
			t.Errorf("rejects = %d, want 8 (burst 2 of 10)", rejects)
		}
		// A millisecond refills one token.
		p.Sleep(1100 * sim.Microsecond)
		fe.Submit(Op{Kind: OpGet, Key: fe.Key(0), Class: sched.LatencySensitive}, func(err error) {
			if err != nil {
				t.Errorf("post-refill submit rejected: %v", err)
			}
		})
	})
}

// TestRateRefillAtTimeBoundaries: a shard's admission bucket at one
// token per millisecond mints its next token only once a whole
// millisecond has passed; refilling at the instant of the last refill
// mints nothing, long idling clamps at the burst rather than rate ×
// idle, and the zero bucket is inactive, so admission never consults it.
func TestRateRefillAtTimeBoundaries(t *testing.T) {
	b := newTokenBucket(1000, 1, 0)
	// take is admission's use of the bucket: refusal reads the balance,
	// Submit spends a token.
	take := func(now sim.Time) bool {
		if b.tokens(now) < 1 {
			return false
		}
		b.avail--
		return true
	}
	// t=0: only the burst token is there.
	if !take(0) || take(0) {
		t.Fatal("at t=0 want exactly the burst token")
	}
	if take(999 * sim.Microsecond) {
		t.Fatal("took a token before the 1ms boundary")
	}
	if !take(1100 * sim.Microsecond) {
		t.Fatal("no token after the 1ms boundary")
	}
	if !take(2100 * sim.Microsecond) {
		t.Fatal("no token after the 2ms boundary")
	}
	if got := b.tokens(2100 * sim.Microsecond); got >= 1 {
		t.Fatalf("tokens %v right after a take, want < 1", got)
	}
	if got := b.tokens(50 * sim.Millisecond); got != 1 {
		t.Fatalf("tokens after long idle = %v, want clamped at burst 1", got)
	}
	var off tokenBucket
	if off.active() {
		t.Fatal("the zero bucket must be inactive")
	}
}

// TestAdmitsAgreesWithSubmit: Admits is Submit's admission decision,
// peeked. For every arrival of a seeded stream over two shards,
// Admits(class) read just before Submit must say whether Submit
// admitted the request — what place's quorum writes rely on. The stream
// meets every refusal: a full queue, an adaptive early drop, an empty
// token bucket, a shard whose device died, and a stopped fabric.
func TestAdmitsAgreesWithSubmit(t *testing.T) {
	cfg := baseConfig(2)
	cfg.Devices = 2
	cfg.WorkersPerShard = 1
	cfg.Admission = AdmissionConfig{
		Enabled:            true,
		QueueLimit:         8,
		LatencyDeadline:    300 * sim.Microsecond,
		ThroughputDeadline: 20 * sim.Millisecond,
		Rate:               10000,
		Burst:              16,
		Adaptive:           true,
	}
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 16, 32)
		rng := sim.NewRNG(11)
		refused := map[string]int{}
		arrive := func(sh *Shard) {
			class := sched.LatencySensitive
			if rng.Bool(0.5) {
				class = sched.Throughput
			}
			i := rng.Int63n(16)
			before := *sh.stats
			want := sh.Admits(class)
			sh.Submit(Op{Kind: OpPut, Key: fe.Key(i), Value: fe.valueFor(i, 1), Class: class}, func(error) {})
			got := sh.stats.Admitted > before.Admitted
			if got != want {
				t.Fatalf("%s at %v: Admits said %v, Submit admitted %v (queue %d)", sh.Name(), p.Now(), want, got, sh.queue.Len())
			}
			switch {
			case got:
			case sh.down:
				refused["device down"]++
			case f.stopped:
				refused["stopped"]++
			case sh.stats.EarlyDropped > before.EarlyDropped:
				refused["early drop"]++
			case sh.queue.Len() >= cfg.Admission.QueueLimit:
				refused["queue full"]++
			default:
				refused["bucket empty"]++
			}
		}
		for n := 0; n < 600; n++ { // bursts of 1–12 arrivals at one shard
			sh := f.Shards()[rng.Intn(2)]
			for k := rng.Intn(12); k >= 0; k-- {
				arrive(sh)
			}
			p.Sleep(sim.Time(rng.Int63n(400)) * sim.Microsecond)
		}
		f.KillDevice(f.Shards()[1].DeviceIndex())
		for n := 0; n < 8; n++ {
			arrive(f.Shards()[1])
		}
		f.Stop(false)
		for n := 0; n < 8; n++ {
			arrive(f.Shards()[0])
		}
		for _, why := range []string{"queue full", "early drop", "bucket empty", "device down", "stopped"} {
			if refused[why] == 0 {
				t.Errorf("no arrival refused by %s: %v", why, refused)
			}
		}
	})
}

func TestDeadlineMissAccounting(t *testing.T) {
	cfg := baseConfig(1)
	cfg.Admission = AdmissionConfig{Enabled: true, QueueLimit: 64, LatencyDeadline: 1, ThroughputDeadline: 1}
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 16, 32)
		for i := int64(0); i < 8; i++ {
			if err := fe.Put(p, i, fe.valueFor(i, 0)); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		st := f.Stats().Shard("shard0")
		if st.DeadlineMissed != st.Served || st.Served == 0 {
			t.Errorf("1ns deadline: missed %d of %d served, want all", st.DeadlineMissed, st.Served)
		}
	})
}

// TestAdaptiveEarlyDropEngages floods one slow shard through adaptive
// admission: once the estimator warms, requests whose queue position
// already implies a deadline miss must be refused at the door, counted
// as early drops inside the reject ledger. (Errors inside the fabric
// proc use t.Errorf + return so the fabric still stops; t.Fatalf there
// is safe too — its Goexit unwinds through eng.Run on the test's
// goroutine and ends the test — but skips f.Stop.)
func TestAdaptiveEarlyDropEngages(t *testing.T) {
	cfg := baseConfig(1)
	cfg.WorkersPerShard = 1
	cfg.Admission = AdmissionConfig{
		Enabled:            true,
		QueueLimit:         1000, // the early drop, not the queue bound, must say no
		LatencyDeadline:    300 * sim.Microsecond,
		ThroughputDeadline: 500 * sim.Microsecond,
		Adaptive:           true,
	}
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 16, 32)
		if err := fe.Preload(p); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		f.ResetStats()
		rejects := 0
		wg := sim.NewWaitGroup(p.Engine())
		const n = 600
		wg.Add(n)
		for i := 0; i < n; i++ {
			// Puts commit through the WAL to flash, so each one is slow
			// enough to pile a real backlog the predictor can see doom in.
			fe.Submit(Op{Kind: OpPut, Key: fe.Key(int64(i % 16)), Value: fe.valueFor(int64(i%16), 1),
				Class: sched.LatencySensitive},
				func(err error) {
					if errors.Is(err, ErrRejected) {
						rejects++
					}
					wg.Done()
				})
			// A sustained trickle, not an instantaneous burst: the
			// estimator needs completions to learn from mid-flood.
			p.Sleep(50 * sim.Microsecond)
		}
		wg.Wait(p)
		st := f.Stats().Shard("shard0")
		if st.EarlyDropped == 0 {
			t.Errorf("no early drops under a %d-deep doomed backlog: %+v", st.MaxQueue, *st)
		}
		if st.EarlyDropped > st.Rejected {
			t.Errorf("early drops %d exceed rejects %d (must be a subset)", st.EarlyDropped, st.Rejected)
		}
		if rejects != int(st.Rejected) {
			t.Errorf("callback saw %d rejects, ledger says %d", rejects, st.Rejected)
		}
		if st.Admitted+st.Rejected != st.Submitted {
			t.Errorf("admission ledger inconsistent: %+v", *st)
		}
	})
}

// TestAdaptiveDeadlineStaysClamped: the derived deadline never leaves
// [1/2, 2] × the static deadline, whatever the observed distribution
// does.
func TestAdaptiveDeadlineStaysClamped(t *testing.T) {
	cfg := baseConfig(1)
	cfg.Admission = AdmissionConfig{
		Enabled:         true,
		QueueLimit:      64,
		LatencyDeadline: 500 * sim.Microsecond,
		Adaptive:        true,
	}
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 16, 32)
		if err := fe.Preload(p); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		sh := f.Shards()[0]
		static := cfg.Admission.LatencyDeadline
		// Cold estimator: the static deadline is the seed.
		if d := sh.deadlineFor(sched.LatencySensitive); d != static {
			t.Errorf("cold deadline = %v, want static %v", d, static)
		}
		for i := int64(0); i < 64; i++ {
			if err := fe.Get(p, i%16); err != nil {
				t.Errorf("get: %v", err)
				return
			}
		}
		d := sh.deadlineFor(sched.LatencySensitive)
		if d < static/2 || d > 2*static {
			t.Errorf("derived deadline %v outside [%v, %v]", d, static/2, 2*static)
		}
	})
}

func TestStopWithoutDrainDropsBacklog(t *testing.T) {
	cfg := baseConfig(1)
	cfg.WorkersPerShard = 1
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 16, 32)
		stopped := 0
		for i := 0; i < 30; i++ {
			fe.Submit(Op{Kind: OpPut, Key: fe.Key(int64(i % 16)), Value: fe.valueFor(0, 0), Class: sched.Throughput},
				func(err error) {
					if errors.Is(err, ErrStopped) {
						stopped++
					}
				})
		}
		f.Stop(false)
		if stopped == 0 {
			t.Error("no queued requests were dropped at stop")
		}
		st := f.Stats().Shard("shard0")
		if int(st.Dropped) != stopped {
			t.Errorf("dropped ledger %d != callbacks %d", st.Dropped, stopped)
		}
		if err := fe.Get(p, 0); !errors.Is(err, ErrStopped) {
			t.Errorf("submit after stop: %v, want ErrStopped", err)
		}
	})
}

func TestFabricCrashReopenPerShard(t *testing.T) {
	for _, progressive := range []bool{false, true} {
		name := "conservative"
		if progressive {
			name = "progressive"
		}
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(3)
			cfg.Progressive = progressive
			// Checkpoint often so every shard has flipped meta at least
			// once before the crash and reopening runs real recovery.
			cfg.Store.CheckpointBytes = 1 << 10
			withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
				fe := NewFrontend(f, 48, 32)
				for i := int64(0); i < 48; i++ {
					if err := fe.Put(p, i, fe.valueFor(i, 0)); err != nil {
						t.Fatalf("put %d: %v", i, err)
					}
				}
				// Flip every shard's meta at least once so reopening runs
				// real recovery (checkpoint + WAL replay), then lay down a
				// post-checkpoint tail that only the WAL holds.
				for _, sh := range f.Shards() {
					if err := sh.System().Store.Checkpoint(p); err != nil {
						t.Fatalf("checkpoint %s: %v", sh.Name(), err)
					}
				}
				for i := int64(0); i < 12; i++ {
					if err := fe.Put(p, i, fe.valueFor(i, 0)); err != nil {
						t.Fatalf("tail put %d: %v", i, err)
					}
				}
				if err := f.Crash(p); err != nil {
					t.Fatalf("crash: %v", err)
				}
				// Every shard reopened from its surviving region: all
				// committed keys readable, both through the frontend and
				// directly from each recovered store.
				for i := int64(0); i < 48; i++ {
					sh := shardFor(fe, fe.Key(i))
					got, err := sh.System().Store.Get(p, fe.Key(i))
					if err != nil || !bytes.Equal(got, fe.valueFor(i, 0)) {
						t.Fatalf("after crash, key %d on %s: %q %v", i, sh.Name(), got, err)
					}
				}
				if err := fe.Get(p, 0); err != nil {
					t.Fatalf("serving after crash: %v", err)
				}
				for _, sh := range f.Shards() {
					if sh.System().Store.Recoveries == 0 {
						t.Errorf("shard %s did not run recovery", sh.Name())
					}
				}
			})
		})
	}
}

// TestProgressiveFabricNeedsSafeBuffer: progressive shards flip meta
// with an atomic write, so New refuses devices without a safe buffer.
func TestProgressiveFabricNeedsSafeBuffer(t *testing.T) {
	cfg := baseConfig(2)
	cfg.Progressive = true
	cfg.DeviceOptions.BufferPages = -1
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		if _, err := New(p, eng, cfg); !errors.Is(err, ssd.ErrAtomicUnsupported) {
			t.Errorf("new fabric: %v, want ErrAtomicUnsupported", err)
		}
	})
	eng.Run()
}

func TestCrashWhileServingResumes(t *testing.T) {
	cfg := baseConfig(2)
	cfg.WorkersPerShard = 1
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 32, 32)
		for i := int64(0); i < 32; i++ {
			if err := fe.Put(p, i, fe.valueFor(i, 0)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		// Pile up a backlog, then pull the plug mid-serving: every queued
		// request must fail with ErrCrashed (not ErrStopped — the fabric
		// comes back), and in-flight work must settle before the device
		// loses volatile state.
		crashed, settled := 0, 0
		const burst = 20
		for i := 0; i < burst; i++ {
			fe.Submit(Op{Kind: OpGet, Key: fe.Key(int64(i % 32)), Class: sched.LatencySensitive},
				func(err error) {
					settled++
					if errors.Is(err, ErrCrashed) {
						crashed++
					}
				})
		}
		if err := f.Crash(p); err != nil {
			t.Fatalf("crash: %v", err)
		}
		if settled != burst {
			t.Fatalf("only %d of %d requests settled through the crash", settled, burst)
		}
		if crashed == 0 {
			t.Fatal("no queued requests were failed with ErrCrashed")
		}
		// Serving resumes: committed data is intact and new requests flow.
		for i := int64(0); i < 32; i++ {
			sh := shardFor(fe, fe.Key(i))
			got, err := sh.System().Store.Get(p, fe.Key(i))
			if err != nil || !bytes.Equal(got, fe.valueFor(i, 0)) {
				t.Fatalf("after crash, key %d: %q %v", i, got, err)
			}
		}
		if err := fe.Get(p, 3); err != nil {
			t.Fatalf("serving after crash: %v", err)
		}
		if err := fe.Put(p, 40, fe.valueFor(40, 0)); err != nil {
			t.Fatalf("writing after crash: %v", err)
		}
	})
}

func TestFrontendDrivesTenantMix(t *testing.T) {
	cfg := baseConfig(2)
	cfg.Admission = AdmissionConfig{Enabled: true, QueueLimit: 32}
	eng := sim.NewEngine()
	var fab *Fabric
	lat := metrics.NewTenantLatencies()
	eng.Go(func(p *sim.Proc) {
		f, err := New(p, eng, cfg)
		if err != nil {
			t.Errorf("new fabric: %v", err)
			return
		}
		fab = f
		fe := NewFrontend(f, 96, 32)
		if err := fe.Preload(p); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		f.Stats().Reset()
		horizon := p.Now() + 5*sim.Millisecond
		if err := fe.Drive(workload.MixedRWMix(), horizon, lat); err != nil {
			t.Errorf("drive: %v", err)
		}
		f.StopAt(horizon, false)
	})
	eng.Run()
	if fab == nil {
		t.Fatal("fabric never built")
	}
	tot := fab.Stats().Totals()
	if tot.Served == 0 {
		t.Fatal("mix drove no served requests")
	}
	// Every tenant in the mix recorded completed requests.
	for _, spec := range workload.MixedRWMix() {
		if lat.Hist(spec.Name).Count() == 0 {
			t.Errorf("tenant %s recorded no latencies", spec.Name)
		}
	}
	if fab.Errors != 0 {
		t.Errorf("engine errors during drive: %d", fab.Errors)
	}
}

// TestFabricGCCoordinationLedger: a coordinated fabric's latency-class
// traffic leases GC deferrals from its devices, and the fabric merges
// the host- and device-side ledgers.
func TestFabricGCCoordinationLedger(t *testing.T) {
	cfg := baseConfig(2)
	cfg.Sched.GCCoordinate = true
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 32, 32)
		for i := int64(0); i < 32; i++ {
			if err := fe.Put(p, i, fe.valueFor(i, 0)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		for i := int64(0); i < 32; i++ {
			if err := fe.Get(p, i); err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
		}
		g := f.GCCoord()
		if g.HostRequests == 0 {
			t.Fatal("no deferral leases requested by a coordinated fabric under latency traffic")
		}
		if g.HostResumes == 0 {
			t.Fatal("no leases released even though every burst drained")
		}
	})
}

// TestResetStatsClearsHealthEvents: the measurement epoch ResetStats
// opens starts with an empty health ledger. The lease grants a
// coordinated fabric's set-up traffic emits are neither counted nor
// retained after the reset — E21's event table used to report them as
// the window's — and grants after the reset are.
func TestResetStatsClearsHealthEvents(t *testing.T) {
	cfg := baseConfig(2)
	cfg.Sched.GCCoordinate = true
	cfg.Telemetry = true
	withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 32, 32)
		traffic := func() {
			for i := int64(0); i < 32; i++ {
				if err := fe.Put(p, i, fe.valueFor(i, 0)); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
				if err := fe.Get(p, i); err != nil {
					t.Fatalf("get %d: %v", i, err)
				}
			}
		}
		m := f.Monitor()
		traffic()
		if m.Count(obs.EventLeaseGrant) == 0 {
			t.Fatal("set-up traffic emitted no lease grants")
		}
		f.ResetStats()
		if c, evs := m.Counts(), m.Events(); len(c) != 0 || len(evs) != 0 {
			t.Fatalf("after ResetStats: counts %v, %d events retained; want both empty", c, len(evs))
		}
		traffic()
		if n, evs := m.Count(obs.EventLeaseGrant), m.Events(); n == 0 || int64(len(evs)) != n {
			t.Fatalf("after the reset: %d lease grants counted, %d events retained; want equal and nonzero", n, len(evs))
		}
	})
}

// TestFabricUncoordinatedSendsNoControlTraffic: the default fabric must
// not lease deferrals.
func TestFabricUncoordinatedSendsNoControlTraffic(t *testing.T) {
	withFabric(t, baseConfig(2), func(p *sim.Proc, f *Fabric) {
		fe := NewFrontend(f, 16, 32)
		for i := int64(0); i < 16; i++ {
			if err := fe.Put(p, i, fe.valueFor(i, 0)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		if g := f.GCCoord(); g.HostRequests != 0 {
			t.Fatalf("uncoordinated fabric leased %d deferrals", g.HostRequests)
		}
	})
}

// TestCrashFailsPendingCommitsOnce: puts whose commits are still waiting
// for the log writer's sync when the power goes — fabric-wide or one
// device — fail exactly once with ErrCrashed (their acks were in host
// memory), are counted as dropped rather than as engine errors, and the
// reopened stores hold every put acknowledged before the crash.
func TestCrashFailsPendingCommitsOnce(t *testing.T) {
	for _, whole := range []bool{true, false} {
		name := "CrashDevice"
		if whole {
			name = "Crash"
		}
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(2)
			cfg.WorkersPerShard = 1
			withFabric(t, cfg, func(p *sim.Proc, f *Fabric) {
				fe := NewFrontend(f, 32, 32)
				for i := int64(0); i < 32; i++ {
					if err := fe.Put(p, i, fe.valueFor(i, 0)); err != nil {
						t.Fatalf("put %d: %v", i, err)
					}
				}
				const burst = 12
				fired := make([]int, burst)
				for i := 0; i < burst; i++ {
					fe.Submit(Op{Kind: OpPut, Key: fe.Key(int64(i)), Value: fe.valueFor(int64(i), 1), Class: sched.Throughput},
						func(err error) {
							fired[i]++
							if !errors.Is(err, ErrCrashed) {
								t.Errorf("pending put %d settled with %v, want ErrCrashed", i, err)
							}
						})
				}
				// Every put is handed off within a few µs; no sync is done.
				p.Sleep(20 * sim.Microsecond)
				for _, sh := range f.Shards() {
					if sh.QueueLen() != 0 {
						t.Fatalf("%s still queues %d ops: the burst was not handed off", sh.Name(), sh.QueueLen())
					}
				}
				if slices.Max(fired) != 0 {
					t.Fatalf("puts settled before the crash (%v): no commit was pending", fired)
				}
				var err error
				if whole {
					err = f.Crash(p)
				} else {
					err = f.CrashDevice(p, 0)
				}
				if err != nil {
					t.Fatalf("crash: %v", err)
				}
				for i, n := range fired {
					if n != 1 {
						t.Errorf("pending put %d settled %d times, want once", i, n)
					}
				}
				if tot := f.Stats().Totals(); tot.Dropped != burst || f.Errors != 0 {
					t.Errorf("dropped %d, engine errors %d; want %d dropped, 0 errors", tot.Dropped, f.Errors, burst)
				}
				// The reopened stores hold every acknowledged put (a failed
				// one may have landed too: its outcome is unknown, not lost).
				for i := int64(0); i < 32; i++ {
					key := fe.Key(i)
					got, err := shardFor(fe, key).System().Store.Get(p, key)
					racer := i < burst && bytes.Equal(got, fe.valueFor(i, 1))
					if err != nil || !bytes.Equal(got, fe.valueFor(i, 0)) && !racer {
						t.Errorf("after the crash, key %d holds %q (%v)", i, got, err)
					}
				}
				if err := fe.Put(p, 3, fe.valueFor(3, 2)); err != nil {
					t.Errorf("writing after the crash: %v", err)
				}
			})
		})
	}
}
