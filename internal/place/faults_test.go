package place

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// faultConfig is replicatedConfig plus the failure-domain extras every
// test here needs: a spare device for rebuilds and the health monitor
// the repair machinery reports through.
func faultConfig(shards, spares int) serve.Config {
	cfg := replicatedConfig(shards)
	cfg.Spares = spares
	cfg.Monitor = true
	return cfg
}

// soakSummary is one soak run's observable outcome — compared across
// runs of the same seed to prove the harness replays exactly.
type soakSummary struct {
	killed     bool
	deaths     int64
	lost       int64
	repairs    int64
	aborted    int64
	stalls     int64
	downEvents int64
	doneEvents int64
}

// runSoak drives one seeded fault scenario against a replicated fabric
// under live writers and readers, then audits the invariants the
// failure domain promises: no acknowledged write lost (per replica, by
// full read-back), no region slot owned twice, the monitor told the
// story (device-down and repair-done events), and every group back at
// full strength on distinct devices. Device kills are capped at one
// (R=2 survives any single death, not two) and chip faults are left to
// the ssd-level tests — a chip death on the survivor would be a second
// fault domain, outside what R=2 promises.
func runSoak(t *testing.T, seed uint64) soakSummary {
	t.Helper()
	cfg := faultConfig(2, 1)
	plan := faults.RandomPlan(seed, faults.PlanConfig{
		Devices: cfg.Devices, Injections: 5, MaxKills: 1,
	})
	eng := sim.NewEngine()
	const keys, writers = 96, 4
	acked := make(map[int64][]byte)
	racers := make(map[int64]map[string]bool)
	var pl *Placement
	var fe *serve.Frontend
	var fab *serve.Fabric
	inj := (*faults.Injector)(nil)
	eng.Go(func(p *sim.Proc) {
		f, err := serve.New(p, eng, cfg)
		if err != nil {
			t.Errorf("new fabric: %v", err)
			return
		}
		fab = f
		if pl, err = New(f); err != nil {
			t.Errorf("new placement: %v", err)
			return
		}
		fe = serve.NewFrontend(f, keys, 32)
		pl.Attach(fe)
		if err := fe.Preload(p); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		for i := int64(0); i < keys; i++ {
			v := make([]byte, 32)
			for j := range v {
				v[j] = byte(int64(j) + i)
			}
			acked[i] = v
		}
		pl.StartMover(MoverConfig{Interval: 200 * sim.Microsecond, CopyBatch: 8})
		horizon := p.Now() + 20*sim.Millisecond
		inj = faults.NewInjector(eng, f)
		if err := inj.Arm(plan, p.Now(), horizon); err != nil {
			t.Errorf("arm plan: %v", err)
			return
		}
		for w := 0; w < writers; w++ {
			w := w
			eng.Go(func(p *sim.Proc) {
				seq := 0
				for p.Now() < horizon {
					k := int64(w) + writers*int64(seq%(keys/writers))
					v := []byte(fmt.Sprintf("w%d-s%d", w, seq))
					seq++
					if err := fe.Put(p, k, v); err == nil {
						acked[k] = v
						delete(racers, k)
					} else {
						// A failed quorum write may still have applied on one
						// replica before the fault hit the other: remember the
						// value so read-back can tell that race from real loss.
						if racers[k] == nil {
							racers[k] = map[string]bool{}
						}
						racers[k][string(v)] = true
						p.Sleep(50 * sim.Microsecond)
					}
				}
			})
		}
		for r := 0; r < 2; r++ {
			eng.Go(func(p *sim.Proc) {
				for i := int64(0); p.Now() < horizon; i++ {
					if err := fe.Get(p, (i*31)%keys); err != nil {
						p.Sleep(50 * sim.Microsecond)
					}
				}
			})
		}
		// Generous post-horizon runway: a stall or slow factor on the
		// survivor stretches the rebuild, and the invariant is that it
		// completes, not that it is fast.
		f.StopAt(horizon+200*sim.Millisecond, true)
	})
	eng.Run()
	if t.Failed() {
		return soakSummary{}
	}

	sum := soakSummary{
		deaths:     pl.repled.DeviceDeaths,
		repairs:    pl.repled.Repairs,
		aborted:    pl.repled.RepairsAborted,
		stalls:     pl.repled.RepairStalls,
		downEvents: fab.Monitor().Count(obs.EventDeviceDown),
		doneEvents: fab.Monitor().Count(obs.EventRepairDone),
	}
	for _, in := range inj.Fired() {
		if in.Kind == faults.KillDevice {
			sum.killed = true
		}
	}

	// Invariant: the monitor always narrates a death and its repair.
	if sum.killed {
		if sum.downEvents == 0 {
			t.Errorf("seed %d: device killed but no device-down event", seed)
		}
		if sum.doneEvents == 0 {
			t.Errorf("seed %d: device killed but no repair-done event", seed)
		}
		if sum.deaths == 0 {
			t.Errorf("seed %d: device killed but repair ledger counts no death", seed)
		}
	} else if sum.downEvents != 0 || sum.deaths != 0 {
		t.Errorf("seed %d: no kill in plan but %d down events, %d ledger deaths",
			seed, sum.downEvents, sum.deaths)
	}

	// Invariant: every group ends at full strength on distinct devices —
	// a kill was repaired onto the spare, milder faults moved nothing.
	for _, g := range pl.Groups() {
		if g.Degraded() || len(g.Replicas()) != cfg.Replicas {
			t.Errorf("seed %d: group %d ends with %d replicas (degraded=%v), want %d",
				seed, g.Index(), len(g.Replicas()), g.Degraded(), cfg.Replicas)
		}
		seen := map[int]bool{}
		for _, sh := range g.Replicas() {
			if seen[sh.DeviceIndex()] {
				t.Errorf("seed %d: group %d has two replicas on device %d",
					seed, g.Index(), sh.DeviceIndex())
			}
			seen[sh.DeviceIndex()] = true
		}
	}

	// Invariant: no region slot is owned by two live shards.
	type devslot struct{ dev, slot int }
	owners := map[devslot]string{}
	for _, sh := range fab.Shards() {
		ds := devslot{sh.DeviceIndex(), sh.Slot()}
		if prev, dup := owners[ds]; dup {
			t.Errorf("seed %d: device %d slot %d owned by both %s and %s",
				seed, ds.dev, ds.slot, prev, sh.Name())
		}
		owners[ds] = sh.Name()
	}

	// Invariant: zero lost acknowledged writes. Every live replica of
	// every key must hold the last acked value or a racer.
	eng.Go(func(p *sim.Proc) {
		for i := int64(0); i < keys; i++ {
			key := fe.Key(i)
			for ri, sys := range fe.TargetFor(key).Systems() {
				got, err := sys.Store.Get(p, key)
				if err != nil {
					sum.lost++
					t.Errorf("seed %d: key %d replica %d unreadable: %v", seed, i, ri, err)
					continue
				}
				if bytes.Equal(got, acked[i]) || racers[i][string(got)] {
					continue
				}
				sum.lost++
				t.Errorf("seed %d: key %d replica %d holds %q, want %q or a recorded racer",
					seed, i, ri, got, acked[i])
			}
		}
	})
	eng.Run()
	return sum
}

// TestFaultSoak replays a table of seeded fault scenarios — each seed
// names one deterministic schedule of kills, stalls and slow media —
// and asserts the failure-domain invariants hold under every one of
// them. -short keeps the PR-CI subset quick; the full table runs in
// the scheduled soak job.
func TestFaultSoak(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13}
	if testing.Short() {
		seeds = seeds[:2]
	}
	killsSeen := false
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sum := runSoak(t, seed)
			if sum.killed {
				killsSeen = true
			}
			t.Logf("seed %d: killed=%v deaths=%d repairs=%d aborted=%d stalls=%d",
				seed, sum.killed, sum.deaths, sum.repairs, sum.aborted, sum.stalls)
		})
	}
	if !killsSeen {
		t.Errorf("no seed in the table draws a device kill; the soak never exercises repair")
	}
}

// TestFaultSoakDeterministic runs the same seed twice and demands
// identical outcomes — the property that makes a failing seed a
// debuggable reproduction instead of a flake.
func TestFaultSoakDeterministic(t *testing.T) {
	a := runSoak(t, 1)
	b := runSoak(t, 1)
	if a != b {
		t.Errorf("seed 1 diverged across runs:\n first: %+v\nsecond: %+v", a, b)
	}
}

// TestRepairStallsUntilSlotFrees pins the spare-slots-exhausted path
// E19's migrations never reach: a device dies while the spare has no
// free region slot. The groups must stay up degraded — still taking
// writes — with the stall counted, and must rebuild the moment slots
// free.
func TestRepairStallsUntilSlotFrees(t *testing.T) {
	cfg := faultConfig(2, 1)
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
		if err := fe.Preload(p); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		// Occupy every region slot on the spare before the death.
		spare := cfg.Devices
		var grafts []*serve.Shard
		for f.FreeSlots(spare) > 0 {
			sh, err := f.AddReplica(p, 0, spare)
			if err != nil {
				t.Errorf("graft on spare: %v", err)
				return
			}
			grafts = append(grafts, sh)
		}
		pl.StartMover(MoverConfig{Interval: 200 * sim.Microsecond, CopyBatch: 8})
		f.KillDevice(0)
		p.Sleep(2 * sim.Millisecond)

		if pl.repled.RepairStalls == 0 {
			t.Errorf("no repair stall counted with every spare slot taken")
		}
		if pl.repled.Repairs != 0 {
			t.Errorf("%d repairs completed with nowhere to rebuild", pl.repled.Repairs)
		}
		for _, g := range pl.Groups() {
			if !g.Degraded() || len(g.Replicas()) != 1 {
				t.Errorf("group %d: degraded=%v replicas=%d, want degraded at 1",
					g.Index(), g.Degraded(), len(g.Replicas()))
			}
		}
		// Degraded is not down: writes must still be accepted at R=1.
		if err := fe.Put(p, 7, []byte("degraded-write")); err != nil {
			t.Errorf("put while stalled degraded: %v", err)
		}
		if pl.repled.DegradedWrites == 0 {
			t.Errorf("degraded write not counted")
		}

		// Free the slots; every poll retries, so the rebuild starts now.
		for _, sh := range grafts {
			f.Retire(sh)
		}
		p.Sleep(40 * sim.Millisecond)
		for _, g := range pl.Groups() {
			if g.Degraded() || len(g.Replicas()) != cfg.Replicas {
				t.Errorf("group %d not rebuilt after slots freed: degraded=%v replicas=%d",
					g.Index(), g.Degraded(), len(g.Replicas()))
			}
		}
		if got := pl.repled.Repairs; got != int64(cfg.Shards) {
			t.Errorf("repairs = %d, want %d", got, cfg.Shards)
		}
		if n := f.Monitor().Count(obs.EventRepairDone); n != int64(cfg.Shards) {
			t.Errorf("repair-done events = %d, want %d", n, cfg.Shards)
		}
		f.Stop(true)
	})
	eng.Run()
}

// TestRepairRetriesAfterDestinationDeath kills the rebuild's
// destination device mid-copy: the half-built replica must be
// abandoned loudly (abort counted, abort event emitted) and the next
// poll must rebuild onto the remaining spare — with every preloaded
// value intact on both final replicas.
func TestRepairRetriesAfterDestinationDeath(t *testing.T) {
	cfg := faultConfig(2, 2)
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
		fe := serve.NewFrontend(f, 128, 48)
		pl.Attach(fe)
		if err := fe.Preload(p); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		pl.StartMover(MoverConfig{Interval: 100 * sim.Microsecond, CopyBatch: 4})
		// Kill the destination the instant a rebuild is in flight on it.
		eng.Go(func(p *sim.Proc) {
			for {
				for _, g := range pl.groups {
					if g.mig != nil {
						f.KillDevice(g.mig.dst.DeviceIndex())
						return
					}
				}
				p.Sleep(50 * sim.Microsecond)
			}
		})
		f.KillDevice(0)
		p.Sleep(60 * sim.Millisecond)

		if pl.repled.RepairsAborted == 0 {
			t.Errorf("destination died mid-copy but no repair abort counted")
		}
		if n := f.Monitor().Count(obs.EventRepairAbort); n == 0 {
			t.Errorf("no repair-abort event emitted")
		}
		if got := pl.repled.Repairs; got != int64(cfg.Shards) {
			t.Errorf("repairs = %d, want %d (rebuild must retry on the second spare)", got, cfg.Shards)
		}
		for _, g := range pl.Groups() {
			if g.Degraded() || len(g.Replicas()) != cfg.Replicas {
				t.Errorf("group %d: degraded=%v replicas=%d after retry",
					g.Index(), g.Degraded(), len(g.Replicas()))
			}
			for _, sh := range g.Replicas() {
				if f.DeviceDown(sh.DeviceIndex()) {
					t.Errorf("group %d routes to dead device %d", g.Index(), sh.DeviceIndex())
				}
			}
		}
		// Nothing preloaded may be missing from either surviving replica.
		for i := int64(0); i < fe.Keys; i++ {
			key := fe.Key(i)
			for ri, sys := range fe.TargetFor(key).Systems() {
				if _, err := sys.Store.Get(p, key); err != nil {
					t.Errorf("key %d replica %d unreadable after retried rebuild: %v", i, ri, err)
				}
			}
		}
		f.Stop(true)
	})
	eng.Run()
}

// TestRepairAbortsLoudlyWhenSurvivorDies kills the copy source — the
// group's last replica — while the rebuild streams from it. The repair
// must abort (never install a partial store), and from then on the
// group must refuse every request with ErrDeviceDown: unavailability
// is an error the client sees, not a silent loss.
func TestRepairAbortsLoudlyWhenSurvivorDies(t *testing.T) {
	cfg := faultConfig(2, 1)
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
		fe := serve.NewFrontend(f, 128, 48)
		pl.Attach(fe)
		if err := fe.Preload(p); err != nil {
			t.Errorf("preload: %v", err)
			return
		}
		pl.StartMover(MoverConfig{Interval: 100 * sim.Microsecond, CopyBatch: 4})
		f.KillDevice(0)
		// Wait for a rebuild to be streaming from the survivor, then kill it.
		for {
			streaming := false
			for _, g := range pl.groups {
				if g.mig != nil {
					streaming = true
				}
			}
			if streaming {
				break
			}
			p.Sleep(50 * sim.Microsecond)
		}
		f.KillDevice(1)
		// The in-flight bulk copy still has to grind through its batch
		// commits before the mover notices the source is gone; give it
		// room to finish and abort.
		p.Sleep(60 * sim.Millisecond)

		if pl.repled.RepairsAborted == 0 {
			t.Errorf("survivor died mid-copy but no repair abort counted")
		}
		if pl.repled.Repairs != 0 {
			t.Errorf("%d repairs completed with no live source", pl.repled.Repairs)
		}
		if n := f.Monitor().Count(obs.EventDeviceDown); n != 2 {
			t.Errorf("device-down events = %d, want 2", n)
		}
		if n := f.Monitor().Count(obs.EventRepairAbort); n == 0 {
			t.Errorf("no repair-abort event emitted")
		}
		for _, g := range pl.Groups() {
			if len(g.Replicas()) != 0 {
				t.Errorf("group %d still routes to %d replicas with both devices dead",
					g.Index(), len(g.Replicas()))
			}
		}
		unavailBefore := pl.repled.Unavailable
		if err := fe.Put(p, 3, []byte("after the fall")); err != serve.ErrDeviceDown {
			t.Errorf("put on dead fabric: %v, want ErrDeviceDown", err)
		}
		if err := fe.Get(p, 3); err != serve.ErrDeviceDown {
			t.Errorf("get on dead fabric: %v, want ErrDeviceDown", err)
		}
		if pl.repled.Unavailable != unavailBefore+2 {
			t.Errorf("unavailable = %d, want %d", pl.repled.Unavailable, unavailBefore+2)
		}
		f.Stop(true)
	})
	eng.Run()
}

// TestCrashLosesVolatileAcksAtDevice pins the volatile-ack trap to the
// layer where it lives. A volatile write buffer acks host writes at RAM
// speed; power loss (ssd.Device.Crash) throws those acks away, and the
// device reports exactly which LPNs died. Two guards keep the trap out
// of the serving fabric: every store commit flushes before
// acknowledging, and AtomicWrite — the one command whose durability
// contract leans on the buffer surviving ("the safe buffer makes it
// durable") — refuses a volatile buffer outright instead of lying. So
// at fabric scope the remaining exposure is a whole device crashing
// with state its peers don't have, which the quorum test below proves
// the placement layer absorbs.
func TestCrashLosesVolatileAcksAtDevice(t *testing.T) {
	eng := sim.NewEngine()
	built, err := ssd.Build(eng, ssd.Enterprise2012, ssd.Options{
		Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 16, PagesPerBlock: 8,
		BufferPages: 16, BufferVolatile: true,
	})
	if err != nil {
		t.Fatalf("build device: %v", err)
	}
	d := built.(*ssd.Device)
	const n = 4 // well below the buffer's flush watermark: acks stay volatile
	acked := 0
	for lpn := int64(0); lpn < n; lpn++ {
		data := bytes.Repeat([]byte{byte(0xA0 + lpn)}, d.PageSize())
		d.Write(lpn, data, func(err error) {
			if err == nil {
				acked++
			}
		})
	}
	eng.Run()
	if acked != n {
		t.Fatalf("acked %d of %d buffered writes", acked, n)
	}
	lost := d.Crash()
	if len(lost) != n {
		t.Errorf("crash lost %d LPNs, want all %d acked writes: %v", len(lost), n, lost)
	}
	for lpn := int64(0); lpn < n; lpn++ {
		var got []byte
		d.Read(lpn, func(b []byte, err error) { got = b })
		eng.Run()
		if len(got) > 0 && got[0] == byte(0xA0+lpn) {
			t.Errorf("lpn %d still holds its acked write after a volatile crash", lpn)
		}
	}
	var atomicErr error
	d.AtomicWrite([]int64{0}, [][]byte{make([]byte, d.PageSize())}, func(err error) { atomicErr = err })
	eng.Run()
	if !errors.Is(atomicErr, ssd.ErrAtomicUnsupported) {
		t.Errorf("atomic write on a volatile buffer: %v, want ErrAtomicUnsupported", atomicErr)
	}
}

// TestCrashDeviceKeepsQuorumAckedWrites is the regression test for the
// volatile-ack trap at quorum scope: a write acked by the quorum has
// completed on every replica, so any single-device crash must be
// survivable — Placement.CrashDevice resyncs the reopened replica from
// its survivor before routing to it again. The devices run volatile
// buffers, so each crash genuinely drops whatever the buffer held, and
// crashes land at several points in the write sequence, on both devices,
// including right after the freshest ack.
func TestCrashDeviceKeepsQuorumAckedWrites(t *testing.T) {
	cfg := faultConfig(2, 0)
	cfg.DeviceOptions.BufferVolatile = true
	withPlacement(t, cfg, func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend) {
		const n = 90
		crashAt := map[int64]int{30: 0, 60: 1, n: 0}
		crashes := 0
		for i := int64(0); i < n; i++ {
			if err := fe.Put(p, i, []byte(fmt.Sprintf("q%d", i))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			if d, ok := crashAt[i+1]; ok {
				if err := pl.CrashDevice(p, d); err != nil {
					t.Fatalf("crash device %d after %d writes: %v", d, i+1, err)
				}
				crashes++
			}
		}
		for i := int64(0); i < n; i++ {
			key := fe.Key(i)
			want := []byte(fmt.Sprintf("q%d", i))
			systems := fe.TargetFor(key).Systems()
			if len(systems) != 2 {
				t.Fatalf("key %d routes to %d replicas, want 2", i, len(systems))
			}
			for ri, sys := range systems {
				got, err := sys.Store.Get(p, key)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("key %d replica %d after %d crashes: %q, %v; want %q",
						i, ri, crashes, got, err, want)
				}
			}
		}
		// Every crash resynced each group with a replica on the crashed
		// device — both groups, every time.
		if got, want := pl.RepairLedger().CrashResyncs, int64(crashes*len(pl.Groups())); got != want {
			t.Errorf("crash resyncs = %d, want %d", got, want)
		}
	})
}
