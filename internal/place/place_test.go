package place

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// smallDevice keeps placement tests fast.
var smallDevice = ssd.Options{Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 48, PagesPerBlock: 16}

func replicatedConfig(shards int) serve.Config {
	return serve.Config{
		Shards:        shards,
		Replicas:      2,
		Devices:       2,
		Mode:          blockdev.MultiQueue,
		DeviceOptions: smallDevice,
		Scheduled:     true,
		WriteCost:     16,
		QueueDepth:    4,
		LogPages:      12,
		Store:         kvstore.Config{CacheFrames: 8, CheckpointBytes: 8 << 10},
	}
}

// withPlacement runs fn in a simulated process over a fresh replicated
// fabric with its placement router attached.
func withPlacement(t *testing.T, cfg serve.Config, fn func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend)) {
	t.Helper()
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		f, err := serve.New(p, eng, cfg)
		if err != nil {
			t.Errorf("new fabric: %v", err)
			return
		}
		pl, err := New(f)
		if err != nil {
			t.Errorf("new placement: %v", err)
			return
		}
		fe := serve.NewFrontend(f, 64, 32)
		pl.Attach(fe)
		fn(p, f, pl, fe)
		f.Stop(true)
	})
	eng.Run()
}

// TestQuorumWritesLandOnEveryReplica: an acked write must be readable
// from both replica stores; reads through the group must succeed; the
// ledger must account the quorum traffic.
func TestQuorumWritesLandOnEveryReplica(t *testing.T) {
	withPlacement(t, replicatedConfig(2), func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend) {
		for i := int64(0); i < 32; i++ {
			if err := fe.Put(p, i, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		for i := int64(0); i < 32; i++ {
			if err := fe.Get(p, i); err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
			key := fe.Key(i)
			systems := fe.TargetFor(key).Systems()
			if len(systems) != 2 {
				t.Fatalf("key %d target has %d systems, want 2", i, len(systems))
			}
			for ri, sys := range systems {
				got, err := sys.Store.Get(p, key)
				if err != nil || !bytes.Equal(got, []byte(fmt.Sprintf("v%d", i))) {
					t.Fatalf("key %d replica %d: %q, %v", i, ri, got, err)
				}
			}
		}
		led := pl.Ledger()
		if led.QuorumWrites != 32 {
			t.Errorf("quorum writes = %d, want 32", led.QuorumWrites)
		}
		// Every key is in both replicas' memtables, so no read had to
		// reach a device and none entered the steering ledger.
		if led.ResidentReads != 32 || led.SteeredReads+led.TieReads != 0 {
			t.Errorf("resident reads = %d, steered+tie = %d, want 32 and 0",
				led.ResidentReads, led.SteeredReads+led.TieReads)
		}
		// Each group has replicas on both devices, distinct.
		for _, g := range pl.Groups() {
			if g.Replicas()[0].DeviceIndex() == g.Replicas()[1].DeviceIndex() {
				t.Errorf("group %d replicas share device %d", g.idx, g.Replicas()[0].DeviceIndex())
			}
		}
	})
}

// TestGroupAdmissionNeverHalfApplies: when one replica cannot admit,
// the write is refused whole — afterwards both replica stores must be
// byte-identical, or replica divergence would poison steered reads.
func TestGroupAdmissionNeverHalfApplies(t *testing.T) {
	cfg := replicatedConfig(1)
	cfg.WorkersPerShard = 1
	cfg.Admission = serve.AdmissionConfig{Enabled: true, QueueLimit: 3}
	withPlacement(t, cfg, func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend) {
		const n = 60
		wg := sim.NewWaitGroup(p.Engine())
		wg.Add(n)
		rejected := 0
		for i := 0; i < n; i++ {
			i := i
			fe.Submit(serve.Op{Kind: serve.OpPut, Key: fe.Key(int64(i % 16)),
				Value: []byte(fmt.Sprintf("x%d", i))},
				func(err error) {
					if err == serve.ErrRejected {
						rejected++
					}
					wg.Done()
				})
		}
		wg.Wait(p)
		led := pl.Ledger()
		if rejected == 0 || led.WriteRejects != int64(rejected) {
			t.Errorf("rejects: callbacks %d, ledger %d (want > 0, equal)", rejected, led.WriteRejects)
		}
		// Both replicas must have identical contents key by key.
		g := pl.groups[0]
		a, b := g.Replicas()[0].System().Store, g.Replicas()[1].System().Store
		mismatches := 0
		if err := a.ScanFrom(p, nil, func(k, v []byte) bool {
			bv, err := b.Get(p, k)
			if err != nil || !bytes.Equal(bv, v) {
				mismatches++
			}
			return true
		}); err != nil {
			t.Fatalf("scan: %v", err)
		}
		if mismatches != 0 {
			t.Errorf("%d keys diverge between replicas after rejects", mismatches)
		}
	})
}

// forget makes every read of g device-bound: each replica checkpoints
// its memtable into its tree and drops every page from its cache.
func forget(t *testing.T, p *sim.Proc, g *Group) {
	t.Helper()
	for _, sh := range g.Replicas() {
		st := sh.System().Store
		if err := st.Checkpoint(p); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		for id := int64(0); id < 1<<14; id++ {
			st.Cache().Invalidate(id)
		}
	}
}

// TestSteeringAvoidsCollectingDevice: a device reporting GC in flight
// must stop receiving steered reads while its peer is clean.
func TestSteeringAvoidsCollectingDevice(t *testing.T) {
	withPlacement(t, replicatedConfig(1), func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend) {
		for i := int64(0); i < 16; i++ {
			if err := fe.Put(p, i, []byte("v")); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		g := pl.groups[0]
		var onBusy, onClean *serve.Shard
		for _, sh := range g.Replicas() {
			if sh.DeviceIndex() == 0 {
				onBusy = sh
			} else {
				onClean = sh
			}
		}
		// Device 0 reports three chips collecting (the E15 notification,
		// injected directly); device 1 stays clean.
		f.Scheduler(0).SetGCActiveChips(3)
		before := f.Stats().Shard(onClean.Name()).Served
		for i := int64(0); i < 24; i++ {
			// Only reads that must reach a device are steered.
			forget(t, p, g)
			if err := fe.Get(p, i%16); err != nil {
				t.Fatalf("get: %v", err)
			}
		}
		f.Scheduler(0).SetGCActiveChips(0)
		if served := f.Stats().Shard(onClean.Name()).Served - before; served != 24 {
			t.Errorf("clean replica served %d of 24 reads during peer GC", served)
		}
		led := pl.Ledger()
		if led.AvoidedGC < 24 {
			t.Errorf("AvoidedGC = %d, want >= 24", led.AvoidedGC)
		}
		_ = onBusy
	})
}

// TestResidentReplicaTakesTheRead: residency comes before device
// health. A key only the collecting device's replica holds in memory is
// read from that replica; a key no replica holds is steered by device
// score, off the collecting device, as before; a scan is steered by
// device score whatever the replicas hold. Only the steered reads enter
// the steering ledger; the first counts as a resident read.
func TestResidentReplicaTakesTheRead(t *testing.T) {
	withPlacement(t, replicatedConfig(1), func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend) {
		// 16 keys of 1 KiB fill several leaves, so warming one key's
		// path leaves other keys' leaves cold.
		for i := int64(0); i < 16; i++ {
			if err := fe.Put(p, i, bytes.Repeat([]byte{byte(i)}, 1024)); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		g := pl.groups[0]
		forget(t, p, g)
		var onBusy, onClean *serve.Shard
		for _, sh := range g.Replicas() {
			if sh.DeviceIndex() == 0 {
				onBusy = sh
			} else {
				onClean = sh
			}
		}
		f.Scheduler(0).SetGCActiveChips(3)
		defer f.Scheduler(0).SetGCActiveChips(0)

		warm := fe.Key(5)
		if _, err := onBusy.System().Store.Get(p, warm); err != nil {
			t.Fatalf("warm get: %v", err)
		}
		var cold []byte
		for i := int64(0); i < 16 && cold == nil; i++ {
			k := fe.Key(i)
			if !onBusy.System().Store.Resident(k) && !onClean.System().Store.Resident(k) {
				cold = k
			}
		}
		if !onBusy.System().Store.Resident(warm) || onClean.System().Store.Resident(warm) || cold == nil {
			t.Fatalf("setup: warm key resident %v/%v, cold key %q",
				onBusy.System().Store.Resident(warm), onClean.System().Store.Resident(warm), cold)
		}

		served := func() (busy, clean int64) {
			st := f.Stats()
			return st.Shard(onBusy.Name()).Served, st.Shard(onClean.Name()).Served
		}
		read := func(op serve.Op) {
			t.Helper()
			c := sim.NewCond(p.Engine())
			var err error
			g.Submit(op, func(e error) { err = e; c.Fire() })
			c.Await(p)
			if err != nil {
				t.Fatalf("%v: %v", op.Kind, err)
			}
		}
		type step struct {
			what                       string
			op                         serve.Op
			busy, clean                int64 // reads served
			resident, steered, avoided int64 // ledger growth
		}
		for _, s := range []step{
			{"a key only the collecting replica holds", serve.Op{Kind: serve.OpGet, Key: warm}, 1, 0, 1, 0, 0},
			{"a key no replica holds", serve.Op{Kind: serve.OpGet, Key: cold}, 0, 1, 0, 1, 1},
			{"a scan from the held key", serve.Op{Kind: serve.OpScan, Key: warm, ScanLimit: 1}, 0, 1, 0, 1, 1},
		} {
			b0, c0 := served()
			led0 := pl.Ledger()
			read(s.op)
			b1, c1 := served()
			led := pl.Ledger()
			if b1-b0 != s.busy || c1-c0 != s.clean {
				t.Errorf("%s: served %d on the collecting replica and %d on the clean one, want %d and %d",
					s.what, b1-b0, c1-c0, s.busy, s.clean)
			}
			if d := led.ResidentReads - led0.ResidentReads; d != s.resident {
				t.Errorf("%s: ResidentReads +%d, want +%d", s.what, d, s.resident)
			}
			if d := led.SteeredReads - led0.SteeredReads; d != s.steered {
				t.Errorf("%s: SteeredReads +%d, want +%d", s.what, d, s.steered)
			}
			if d := led.AvoidedGC - led0.AvoidedGC; d != s.avoided {
				t.Errorf("%s: AvoidedGC +%d, want +%d", s.what, d, s.avoided)
			}
			if d := led.TieReads - led0.TieReads; d != 0 {
				t.Errorf("%s: TieReads +%d, want +0", s.what, d)
			}
		}
	})
}

// TestLiveMigrationLosesNoAcknowledgedWrite is the acceptance test for
// drift-triggered live migration: writers and readers keep the group
// under load, a device ages mid-run, the drift alarm trips, the mover
// streams the shard to the spare device, and afterwards every replica
// of every group holds exactly the last acknowledged value of every
// key — zero lost, zero stale.
func TestLiveMigrationLosesNoAcknowledgedWrite(t *testing.T) {
	cfg := replicatedConfig(2)
	cfg.Spares = 1
	// Unbuffered flash so programs pay real (and, once aged, drifted)
	// latency the estimator can see; a 20ms observation window smooths
	// the thin per-device sample rate.
	cfg.DeviceOptions.BufferPages = -1
	cfg.CalibrateWindow = 5 * sim.Millisecond
	cfg.Store = kvstore.Config{CacheFrames: 4, CheckpointBytes: 8 << 10}
	eng := sim.NewEngine()
	const keys = 256
	const valueSize = 48
	// preloadValue mirrors Frontend's deterministic preload payload.
	preloadValue := func(i int64) []byte {
		v := make([]byte, valueSize)
		for j := range v {
			v[j] = byte(int64(j) + i)
		}
		return v
	}
	acked := make(map[int64][]byte)
	var pl *Placement
	var fe *serve.Frontend
	var fab *serve.Fabric
	eng.Go(func(p *sim.Proc) {
		f, err := serve.New(p, eng, cfg)
		if err != nil {
			t.Errorf("new fabric: %v", err)
			return
		}
		fab = f
		pl, err = New(f)
		if err != nil {
			t.Errorf("new placement: %v", err)
			return
		}
		fe = serve.NewFrontend(f, keys, valueSize)
		pl.Attach(fe)
		if err := fe.Preload(p); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		for i := int64(0); i < keys; i++ {
			acked[i] = preloadValue(i)
		}
		pl.StartMover(MoverConfig{
			Interval:        250 * sim.Microsecond,
			DriftMinSamples: 12,
		})
		horizon := p.Now() + 40*sim.Millisecond
		// Device 0 ages 10ms in: reads and programs slow 3x — the drift
		// the alarm exists to notice.
		eng.Schedule(p.Now()+10*sim.Millisecond, func() {
			if dev, ok := f.Stack(0).Device().(*ssd.Device); ok {
				dev.AgeTiming(3, 3, 2)
			}
		})
		// Six writers own disjoint key ranges (so per-key writes are
		// sequential and "last acked" is well defined); two readers keep
		// strided read traffic flowing for the estimator and steering.
		for w := 0; w < 6; w++ {
			w := w
			eng.Go(func(p *sim.Proc) {
				seq := 0
				for p.Now() < horizon {
					k := int64(w + 6*(seq%(keys/6)))
					v := []byte(fmt.Sprintf("w%d-s%d", w, seq))
					seq++
					if err := fe.Put(p, k, v); err == nil {
						acked[k] = v
					} else {
						p.Sleep(50 * sim.Microsecond)
					}
				}
			})
		}
		for r := 0; r < 2; r++ {
			eng.Go(func(p *sim.Proc) {
				for i := int64(0); p.Now() < horizon; i++ {
					if err := fe.Get(p, (i*61)%keys); err != nil {
						p.Sleep(50 * sim.Microsecond)
					}
				}
			})
		}
		// Stop well past the horizon so in-flight migrations finish
		// (bulk-copying a shard onto fresh unbuffered flash pays real
		// program latency for every page).
		f.StopAt(horizon+120*sim.Millisecond, true)
	})
	eng.Run()
	if t.Failed() {
		return
	}

	led := pl.Ledger()
	if led.DriftTrips < 1 {
		t.Fatalf("drift alarm never tripped (ledger %+v)", led)
	}
	if led.Migrations < 1 {
		t.Fatalf("no migration completed (aborted %d)", led.MigrationsAborted)
	}
	// Something must now live on the spare device, and nothing of the
	// surviving placement on the evacuated one.
	onSpare := 0
	for _, g := range pl.Groups() {
		for _, sh := range g.Replicas() {
			if sh.Retired() {
				t.Errorf("group %d still routes to retired shard %s", g.idx, sh.Name())
			}
			if sh.DeviceIndex() >= fab.PlacedDevices() {
				onSpare++
			}
		}
	}
	if onSpare == 0 {
		t.Error("no replica landed on the spare device")
	}

	// Read-back: every replica of every key's group must hold exactly
	// the last acknowledged value.
	lost, stale := 0, 0
	eng.Go(func(p *sim.Proc) {
		for i := int64(0); i < keys; i++ {
			key := fe.Key(i)
			for _, sys := range fe.TargetFor(key).Systems() {
				got, err := sys.Store.Get(p, key)
				if err != nil {
					lost++
					continue
				}
				if !bytes.Equal(got, acked[i]) {
					stale++
				}
			}
		}
	})
	eng.Run()
	if lost != 0 || stale != 0 {
		t.Fatalf("post-migration read-back: %d lost, %d stale acknowledged writes", lost, stale)
	}
}
