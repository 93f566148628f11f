package place

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/kvstore"
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
	cfg.Telemetry = true
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

// soakLoad is the client side the soaks share: four writers over
// disjoint key ranges (so "last acked" is well defined per key) and two
// strided readers, all running until horizon, plus the ledger that
// read-back is judged against.
type soakLoad struct {
	acked  map[int64][]byte          // last acknowledged value per key
	racers map[int64]map[string]bool // values of failed writes since, per key
	acks   int
}

// startSoakLoad seeds the ledger with fe's preload values and spawns the
// writers and readers.
func startSoakLoad(eng *sim.Engine, fe *serve.Frontend, horizon sim.Time) *soakLoad {
	const writers = 4
	l := &soakLoad{acked: map[int64][]byte{}, racers: map[int64]map[string]bool{}}
	for i := int64(0); i < fe.Keys; i++ {
		v := make([]byte, 32)
		for j := range v {
			v[j] = byte(int64(j) + i)
		}
		l.acked[i] = v
	}
	for w := 0; w < writers; w++ {
		w := w
		eng.Go(func(p *sim.Proc) {
			seq := 0
			for p.Now() < horizon {
				k := int64(w) + writers*int64(seq%(int(fe.Keys)/writers))
				v := []byte(fmt.Sprintf("w%d-s%d", w, seq))
				seq++
				if err := fe.Put(p, k, v); err == nil {
					l.acked[k] = v
					delete(l.racers, k)
					l.acks++
				} else {
					// A failed quorum write may still have applied on one
					// replica before the fault hit the other: remember the
					// value so read-back can tell that race from real loss.
					if l.racers[k] == nil {
						l.racers[k] = map[string]bool{}
					}
					l.racers[k][string(v)] = true
					p.Sleep(50 * sim.Microsecond)
				}
			}
		})
	}
	for r := 0; r < 2; r++ {
		eng.Go(func(p *sim.Proc) {
			for i := int64(0); p.Now() < horizon; i++ {
				if err := fe.Get(p, (i*31)%fe.Keys); err != nil {
					p.Sleep(50 * sim.Microsecond)
				}
			}
		})
	}
	return l
}

// holds reports whether got is acceptable for key i: its last acked
// value or a recorded racer.
func (l *soakLoad) holds(i int64, got []byte) bool {
	return bytes.Equal(got, l.acked[i]) || l.racers[i][string(got)]
}

// runSoak drives one seeded fault scenario against a replicated fabric
// under live writers and readers, then audits the invariants the
// failure domain promises: no acknowledged write lost (per replica, by
// full read-back), no region slot owned twice, the monitor told the
// story (device-down and repair-done events), and every group back at
// full strength on distinct devices. Device kills are capped at one
// (R=2 survives any single death, not two), and every fault is
// device-scoped — a chip death on the survivor would be a second fault
// domain, outside what R=2 promises; dead dies are the FTL tests' case.
func runSoak(t *testing.T, seed uint64) soakSummary {
	t.Helper()
	cfg := faultConfig(2, 1)
	plan := faults.RandomPlan(seed, faults.PlanConfig{
		Devices: cfg.Devices, Injections: 5, MaxKills: 1,
	})
	eng := sim.NewEngine()
	const keys = 96
	var load *soakLoad
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
		pl.StartMover(MoverConfig{Interval: 200 * sim.Microsecond})
		horizon := p.Now() + 20*sim.Millisecond
		inj = faults.NewInjector(eng, f)
		if err := inj.Arm(plan, p.Now(), horizon); err != nil {
			t.Errorf("arm plan: %v", err)
			return
		}
		load = startSoakLoad(eng, fe, horizon)
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
				seed, g.idx, len(g.Replicas()), g.Degraded(), cfg.Replicas)
		}
		seen := map[int]bool{}
		for _, sh := range g.Replicas() {
			if seen[sh.DeviceIndex()] {
				t.Errorf("seed %d: group %d has two replicas on device %d",
					seed, g.idx, sh.DeviceIndex())
			}
			seen[sh.DeviceIndex()] = true
		}
	}

	auditSlots(t, seed, fab)

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
				if load.holds(i, got) {
					continue
				}
				sum.lost++
				t.Errorf("seed %d: key %d replica %d holds %q, want %q or a recorded racer",
					seed, i, ri, got, load.acked[i])
			}
		}
	})
	eng.Run()
	return sum
}

// auditSlots checks the invariant that no region slot is owned by two
// live shards.
func auditSlots(t *testing.T, seed uint64, fab *serve.Fabric) {
	t.Helper()
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
		pl.StartMover(MoverConfig{Interval: 200 * sim.Microsecond})
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
					g.idx, g.Degraded(), len(g.Replicas()))
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
					g.idx, g.Degraded(), len(g.Replicas()))
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
		pl.StartMover(MoverConfig{Interval: 100 * sim.Microsecond})
		// Kill the destination the instant a rebuild is in flight on it
		// (the group is reserved before its destination exists).
		eng.Go(func(p *sim.Proc) {
			for {
				for _, g := range pl.groups {
					if g.mig != nil && g.mig.dst != nil {
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
					g.idx, g.Degraded(), len(g.Replicas()))
			}
			for _, sh := range g.Replicas() {
				if f.DeviceDown(sh.DeviceIndex()) {
					t.Errorf("group %d routes to dead device %d", g.idx, sh.DeviceIndex())
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
		pl.StartMover(MoverConfig{Interval: 100 * sim.Microsecond})
		f.KillDevice(0)
		// Wait for a rebuild to be streaming from the survivor, then kill it.
		for {
			streaming := false
			for _, g := range pl.groups {
				if g.mig != nil && g.mig.dst != nil {
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
					g.idx, len(g.Replicas()))
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

// TestRepairAbortsWhenSurvivorDiesBeforeCopy kills the last survivor
// while the rebuild is still opening its destination store — before
// there is a copy to fail. With nobody left to copy from the rebuild
// must abort like any other lost source: destination retired, abort
// counted, nothing left mid-migration.
func TestRepairAbortsWhenSurvivorDiesBeforeCopy(t *testing.T) {
	withPlacement(t, faultConfig(2, 1), func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend) {
		if err := fe.Preload(p); err != nil {
			t.Fatalf("preload: %v", err)
		}
		f.KillDevice(0)
		// Opening a store reads its meta pages: a microsecond in, the
		// destination is still being built.
		p.Engine().Schedule(p.Now()+sim.Microsecond, func() { f.KillDevice(1) })
		m := &Mover{pl: pl, evac: make([]bool, f.Devices())}
		g := pl.groups[0]
		m.repair(p, g)
		if g.mig != nil || len(g.Replicas()) != 0 {
			t.Errorf("group 0 after the rebuild: mig set=%v, %d replicas; want settled and empty",
				g.mig != nil, len(g.Replicas()))
		}
		if got := pl.RepairLedger().RepairsAborted; got != 1 {
			t.Errorf("repairs aborted = %d, want 1", got)
		}
		if free := f.FreeSlots(f.PlacedDevices()); free != 2 {
			t.Errorf("spare has %d free slots, want 2 (the half-built replica retired)", free)
		}
	})
}

// TestCrashDeviceWhileRepairOpensDestination starts a CrashDevice of the
// survivors' device while a repair is still opening its destination
// store (AddReplica takes virtual time). The repair reserves its group
// before that yield, so the crash finds the group mid-migration and is
// refused like any crash of a migrating group — instead of installing a
// resync the repair then overwrites. The repair runs to its end and is
// counted, nothing is left mid-migration, every acknowledged write reads
// back from every replica, and once the group has settled the same
// crash goes through and resyncs it.
func TestCrashDeviceWhileRepairOpensDestination(t *testing.T) {
	withPlacement(t, faultConfig(2, 1), func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend) {
		if err := fe.Preload(p); err != nil {
			t.Fatalf("preload: %v", err)
		}
		acked := map[int64][]byte{}
		for i := int64(0); i < fe.Keys; i++ {
			v := make([]byte, 32)
			for j := range v {
				v[j] = byte(int64(j) + i)
			}
			acked[i] = v
		}
		f.KillDevice(0)
		// Acked while degraded: held by the device-1 survivors alone.
		for i := int64(0); i < 16; i++ {
			v := []byte(fmt.Sprintf("degraded-%d", i))
			if err := fe.Put(p, i, v); err != nil {
				t.Fatalf("degraded put %d: %v", i, err)
			}
			acked[i] = v
		}
		readBack := func(when string) {
			for i := int64(0); i < fe.Keys; i++ {
				key := fe.Key(i)
				for ri, sys := range fe.TargetFor(key).Systems() {
					if got, err := sys.Store.Get(p, key); err != nil || !bytes.Equal(got, acked[i]) {
						t.Errorf("%s: key %d replica %d holds %q (%v), want %q", when, i, ri, got, err, acked[i])
					}
				}
			}
		}

		var crashErr error
		crashed := false
		// Opening a store reads its meta pages: a microsecond in, the
		// repair's destination is still being built.
		p.Engine().Schedule(p.Now()+sim.Microsecond, func() {
			p.Engine().Go(func(p *sim.Proc) {
				crashErr = pl.CrashDevice(p, 1)
				crashed = true
			})
		})
		g := pl.groups[0]
		(&Mover{pl: pl, evac: make([]bool, f.Devices())}).repair(p, g)
		for !crashed {
			p.Sleep(10 * sim.Microsecond)
		}
		if crashErr == nil || !strings.Contains(crashErr.Error(), "mid-migration") {
			t.Errorf("CrashDevice during the repair's AddReplica: %v, want it refused as mid-migration", crashErr)
		}
		for _, g := range pl.Groups() {
			if g.mig != nil {
				t.Errorf("group %d left mid-migration", g.idx)
			}
		}
		if led := pl.RepairLedger(); led.Repairs != 1 || led.RepairsAborted != 0 {
			t.Errorf("repairs = %d, aborted = %d; want the repair run and counted once", led.Repairs, led.RepairsAborted)
		}
		if got := devicesOf(g); !slices.Equal(got, []int{1, 2}) {
			t.Errorf("group 0 on devices %v, want [1 2] (survivor plus the rebuilt replica)", got)
		}
		readBack("after the repair")

		if err := pl.CrashDevice(p, 1); err != nil {
			t.Fatalf("crash of device 1 once every group settled: %v", err)
		}
		if got := pl.RepairLedger().CrashResyncs; got != 1 {
			t.Errorf("crash resyncs = %d, want 1 (group 0 from its rebuilt replica)", got)
		}
		readBack("after the crash resync")
	})
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

// crashResyncRace is the overlapping double fault the tests below
// share: R=2, three groups ring-placed on three devices (group i on
// devices i and i+1) plus a spare; device 0 crashes — hitting group 0,
// whose survivor is on device 1, then group 2, whose survivor is on
// device 2 — and once its shards have reopened (group 0's resync is
// starting) the victim device is killed the first instant trigger
// reports true for group 0's reopened replica, polled every 20µs. audit
// runs after CrashDevice has returned err and no group is found left
// mid-migration.
func crashResyncRace(t *testing.T, victim int, trigger func(reopened *serve.Shard) bool,
	audit func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend, err error)) {
	t.Helper()
	cfg := faultConfig(3, 1)
	cfg.Devices = 3
	withPlacement(t, cfg, func(p *sim.Proc, f *serve.Fabric, pl *Placement, _ *serve.Frontend) {
		// Enough keys that a group's snapshot scan cannot come out of the
		// survivor's 8-frame page cache.
		fe := serve.NewFrontend(f, 6000, 32)
		pl.Attach(fe)
		if err := fe.Preload(p); err != nil {
			t.Fatalf("preload: %v", err)
		}
		before := map[*serve.Shard]*kvstore.System{}
		for _, sh := range f.Shards() {
			if sh.DeviceIndex() == 0 {
				before[sh] = sh.System()
			}
		}
		reopened := pl.groups[0].Replicas()[0]
		p.Engine().Go(func(p *sim.Proc) {
			for sh, sys := range before {
				for sh.System() == sys {
					p.Sleep(20 * sim.Microsecond)
				}
			}
			for !trigger(reopened) {
				p.Sleep(20 * sim.Microsecond)
			}
			f.KillDevice(victim)
		})
		err := pl.CrashDevice(p, 0)
		for _, g := range pl.Groups() {
			if g.mig != nil {
				t.Errorf("group %d left mid-migration after CrashDevice returned (%v)", g.idx, err)
			}
		}
		audit(p, f, pl, fe, err)
	})
}

// wantResyncLedger checks how the crash's two resyncs were counted.
func wantResyncLedger(t *testing.T, pl *Placement, resyncs, aborted int64) {
	t.Helper()
	if led := pl.RepairLedger(); led.CrashResyncs != resyncs || led.RepairsAborted != aborted {
		t.Errorf("crash resyncs = %d, repairs aborted = %d; want %d and %d",
			led.CrashResyncs, led.RepairsAborted, resyncs, aborted)
	}
}

// devicesOf lists the devices g's members sit on, in member order.
func devicesOf(g *Group) []int {
	var ds []int
	for _, sh := range g.Replicas() {
		ds = append(ds, sh.DeviceIndex())
	}
	return ds
}

// TestCrashResyncSourceDiesDuringScan kills group 0's survivor inside
// the snapshot scan its resync streams from. The resync must fail
// loudly, but nothing may be stranded: group 0 keeps serving from its
// reopened replica (intact on live device 0 — a replica that lost its
// volatile acks beats none), group 2 still gets its own resync rather
// than being skipped or rejoined as-is, and a Mover started afterwards
// finds every group rebuildable.
func TestCrashResyncSourceDiesDuringScan(t *testing.T) {
	crashResyncRace(t, 1, func(*serve.Shard) bool { return true },
		func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend, err error) {
			if err == nil {
				t.Fatalf("CrashDevice returned nil with group 0's only copy source killed mid-scan")
			}
			wantResyncLedger(t, pl, 1, 1) // group 2 resynced, group 0 aborted
			if got := devicesOf(pl.groups[0]); !slices.Equal(got, []int{0}) {
				t.Errorf("group 0 on devices %v, want [0] (its reopened replica)", got)
			}
			if got := devicesOf(pl.groups[2]); !slices.Equal(got, []int{2, 0}) {
				t.Errorf("group 2 on devices %v, want [2 0] (resynced and rejoined)", got)
			}
			for i := int64(0); i < fe.Keys; i++ {
				if err := fe.Get(p, i); err != nil {
					t.Fatalf("get key %d after the failed resync: %v", i, err)
				}
			}
			pl.StartMover(MoverConfig{Interval: 200 * sim.Microsecond})
			p.Sleep(600 * sim.Millisecond)
			for _, g := range pl.Groups() {
				seen := map[int]bool{}
				for _, d := range devicesOf(g) {
					if seen[d] || f.DeviceDown(d) {
						t.Errorf("group %d on devices %v: duplicate or dead device %d", g.idx, devicesOf(g), d)
					}
					seen[d] = true
				}
				if g.Degraded() || len(seen) != 2 {
					t.Errorf("group %d not rebuilt by the Mover: devices %v, degraded=%v",
						g.idx, devicesOf(g), g.Degraded())
				}
			}
		})
}

// TestCrashResyncSourceDiesAfterScan kills the survivor once the scan is
// done and the bulk copy is committing from host RAM: no I/O fails, so
// only the source-lost check stands between a dead source and a
// "completed" resync. It must be a reported abort, not a counted
// success.
func TestCrashResyncSourceDiesAfterScan(t *testing.T) {
	crashResyncRace(t, 1, func(reopened *serve.Shard) bool { return reopened.System().Store.Commits > 0 },
		func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend, err error) {
			if !errors.Is(err, errSourceLost) {
				t.Fatalf("CrashDevice = %v, want an abort wrapping errSourceLost", err)
			}
			wantResyncLedger(t, pl, 1, 1) // group 2 resynced, group 0 aborted
			if got := devicesOf(pl.groups[0]); !slices.Equal(got, []int{0}) {
				t.Errorf("group 0 on devices %v, want [0] (its reopened replica)", got)
			}
		})
}

// TestCrashResyncSourceDiesBeforeItsTurn kills group 2's survivor while
// group 0 is still resyncing. Group 2 served writes from that survivor
// alone since the crash began, so when its turn comes with nobody left
// to copy from, getting its reopened replica back as-is is the best
// outcome available but not a clean one: it must be reported like any
// other lost source, not passed off as the no-survivor case.
func TestCrashResyncSourceDiesBeforeItsTurn(t *testing.T) {
	crashResyncRace(t, 2, func(*serve.Shard) bool { return true },
		func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend, err error) {
			if !errors.Is(err, errSourceLost) {
				t.Fatalf("CrashDevice = %v, want an abort wrapping errSourceLost", err)
			}
			wantResyncLedger(t, pl, 1, 1) // group 0 resynced, group 2 aborted
			if got := devicesOf(pl.groups[0]); !slices.Equal(got, []int{1, 0}) {
				t.Errorf("group 0 on devices %v, want [1 0] (resynced and rejoined)", got)
			}
			if got := devicesOf(pl.groups[2]); !slices.Equal(got, []int{0}) {
				t.Errorf("group 2 on devices %v, want [0] (its reopened replica)", got)
			}
		})
}

// TestCrashResyncDestinationDies kills the crashed device itself once
// its shards have reopened: both resyncs lose their destination. Each
// must abort and retire the reopened replica — its group keeps serving
// from the survivor, now counted as degraded so the Mover's rebuild is
// ledgered as the repair it is.
func TestCrashResyncDestinationDies(t *testing.T) {
	crashResyncRace(t, 0, func(*serve.Shard) bool { return true },
		func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend, err error) {
			if err == nil || errors.Is(err, errSourceLost) {
				t.Fatalf("CrashDevice = %v, want the destination's write errors", err)
			}
			wantResyncLedger(t, pl, 0, 2)
			for i, want := range [][]int{{1}, {1, 2}, {2}} {
				g := pl.groups[i]
				if got := devicesOf(g); !slices.Equal(got, want) || g.Degraded() != (len(want) < 2) {
					t.Errorf("group %d on devices %v (degraded=%v), want %v", i, got, g.Degraded(), want)
				}
			}
			if free := f.FreeSlots(0); free != 2 {
				t.Errorf("dead device 0 has %d free slots, want 2 (both reopened replicas retired)", free)
			}
			pl.StartMover(MoverConfig{Interval: 200 * sim.Microsecond})
			p.Sleep(600 * sim.Millisecond)
			if got := pl.RepairLedger().Repairs; got != 2 {
				t.Errorf("repairs = %d after the Mover ran, want 2 (groups 0 and 2 rebuilt onto the spare)", got)
			}
		})
}

// TestCrashDeviceDiesWhileReopening kills the crashing device while its
// first shard is inside recovery, so the crash itself fails. Even that
// exit must settle every hit group: the replicas that cannot reopen
// retire, and their groups serve on from the survivors.
func TestCrashDeviceDiesWhileReopening(t *testing.T) {
	withPlacement(t, faultConfig(2, 1), func(p *sim.Proc, f *serve.Fabric, pl *Placement, fe *serve.Frontend) {
		if err := fe.Preload(p); err != nil {
			t.Fatalf("preload: %v", err)
		}
		// Reopen closes the old store before recovery reads anything, so
		// the first refused snapshot says a shard is mid-reopen. Recovery's
		// meta-slot probe skips an unreadable slot (a torn flip looks the
		// same); 100µs later it is past the probe, recovering the log,
		// where a dead device is an error.
		old := pl.groups[0].Replicas()[0].System().Store
		p.Engine().Go(func(p *sim.Proc) {
			for {
				sn, err := old.Snapshot()
				if err != nil {
					break
				}
				sn.Release()
				p.Sleep(sim.Microsecond)
			}
			p.Sleep(100 * sim.Microsecond)
			f.KillDevice(0)
		})
		err := pl.CrashDevice(p, 0)
		if err == nil || !strings.Contains(err.Error(), "reopen shard") {
			t.Fatalf("CrashDevice = %v, want the failed reopen", err)
		}
		for _, g := range pl.Groups() {
			if got := devicesOf(g); g.mig != nil || !g.Degraded() || !slices.Equal(got, []int{1}) {
				t.Errorf("group %d: mig set=%v degraded=%v devices %v; want settled, degraded, on [1]",
					g.idx, g.mig != nil, g.Degraded(), got)
			}
		}
		for i := int64(0); i < fe.Keys; i++ {
			if err := fe.Put(p, i, []byte("after")); err != nil {
				t.Fatalf("put key %d on the survivors: %v", i, err)
			}
		}
	})
}

// overlapSummary is one overlap-soak run's observable outcome, compared
// across two runs of a seed.
type overlapSummary struct {
	crashed, killed int
	killAfter       sim.Time // kill offset from the start of CrashDevice
	crashTook       sim.Time
	killInside      bool // the kill landed before CrashDevice returned
	crashErr        string
	resyncs         int64
	aborted         int64
	repairs         int64
	acked           int
	lost            int
}

// runOverlapSoak drives one seeded crash+kill overlap against the ring
// fabric of crashResyncRace under live writers and readers and a
// running Mover: device c crashes at a seeded instant and device k ≠ c
// — home of the survivor of one of c's two groups — is killed at a
// seeded offset inside or just after the resync. R=2 does not promise
// to survive that double fault; what is audited is that the outcome is
// reported and nothing is stranded: no group ends mid-migration or with
// fewer members than it has live replica shards, no region slot is
// owned twice, and every write acked by a group that ends at full
// strength with no abort reported against it reads back from each of
// its members (racers allowed, as in runSoak).
func runOverlapSoak(t *testing.T, seed uint64) overlapSummary {
	t.Helper()
	cfg := faultConfig(3, 1)
	cfg.Devices = 3
	rng := sim.NewRNG(seed)
	sum := overlapSummary{crashed: rng.Intn(3)}
	sum.killed = (sum.crashed + 1 + rng.Intn(2)) % 3
	crashAfter := sim.Millisecond + sim.Time(rng.Int63n(int64(4*sim.Millisecond)))
	sum.killAfter = sim.Time(rng.Int63n(int64(overlapWindow)))
	eng := sim.NewEngine()
	const keys = 1536
	var load *soakLoad
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
		pl.StartMover(MoverConfig{Interval: 200 * sim.Microsecond})
		start := p.Now()
		horizon := start + crashAfter + 2*overlapWindow
		load = startSoakLoad(eng, fe, horizon)
		crashing := false
		eng.Schedule(start+crashAfter+sum.killAfter, func() {
			sum.killInside = crashing
			f.KillDevice(sum.killed)
		})
		f.StopAt(horizon+600*sim.Millisecond, true)
		p.Sleep(crashAfter)
		crashing = true
		if err := pl.CrashDevice(p, sum.crashed); err != nil {
			sum.crashErr = err.Error()
		}
		crashing = false
		sum.crashTook = p.Now() - start - crashAfter
	})
	eng.Run()
	if t.Failed() {
		return sum
	}
	sum.acked = load.acks
	sum.resyncs = pl.repled.CrashResyncs
	sum.aborted = pl.repled.RepairsAborted
	sum.repairs = pl.repled.Repairs

	// Reported: an abort is in the ledger, in the returned error and in
	// the monitor's events, or in none of them.
	abortedGroups := map[string]bool{}
	for _, ev := range fab.Monitor().Events() {
		if ev.Kind == obs.EventRepairAbort || ev.Kind == obs.EventMigrationAbort {
			abortedGroups[ev.Name] = true
		}
	}
	if (sum.aborted > 0) != (sum.crashErr != "") || (sum.aborted > 0) != (len(abortedGroups) > 0) {
		t.Errorf("seed %d: %d repairs aborted, %d groups with abort events, CrashDevice error %q",
			seed, sum.aborted, len(abortedGroups), sum.crashErr)
	}

	// Not stranded: no group mid-migration, none missing a live replica
	// shard of its own, no member on a dead device.
	live := make([]int, len(pl.Groups()))
	for _, sh := range fab.Shards() {
		if !fab.DeviceDown(sh.DeviceIndex()) {
			live[sh.Logical()]++
		}
	}
	for _, g := range pl.Groups() {
		if g.mig != nil {
			t.Errorf("seed %d: group %d ends mid-migration", seed, g.idx)
		}
		if len(g.Replicas()) < live[g.idx] {
			t.Errorf("seed %d: group %d ends with %d members but %d live replica shards",
				seed, g.idx, len(g.Replicas()), live[g.idx])
		}
		for _, d := range devicesOf(g) {
			if fab.DeviceDown(d) {
				t.Errorf("seed %d: group %d ends with a member on dead device %d", seed, g.idx, d)
			}
		}
	}
	auditSlots(t, seed, fab)

	// Zero lost acknowledged writes wherever none was reported.
	eng.Go(func(p *sim.Proc) {
		for i := int64(0); i < keys; i++ {
			key := fe.Key(i)
			g := fe.TargetFor(key).(*Group)
			if len(g.Replicas()) != cfg.Replicas || abortedGroups[fmt.Sprintf("shard%d", g.idx)] {
				continue
			}
			for ri, sys := range g.Systems() {
				got, err := sys.Store.Get(p, key)
				if err == nil && load.holds(i, got) {
					continue
				}
				sum.lost++
				t.Errorf("seed %d: key %d (group %d) replica %d holds %q, %v; want %q or a recorded racer",
					seed, i, g.idx, ri, got, err, load.acked[i])
			}
		}
	})
	eng.Run()
	return sum
}

// overlapWindow bounds the seeded kill offset after the crash begins:
// about 1.5× the 75–80ms an undisturbed CrashDevice takes in
// runOverlapSoak's fabric, so kills land inside it and just after it.
const overlapWindow = 120 * sim.Millisecond

// TestCrashResyncSoak replays seeded crash+kill overlaps (see
// runOverlapSoak), each seed twice: the second run must reproduce the
// first's summary exactly. -short keeps the PR-CI subset quick.
func TestCrashResyncSoak(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34}
	if testing.Short() {
		seeds = seeds[:2]
	}
	inside, aborts := 0, int64(0)
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sum := runOverlapSoak(t, seed)
			if t.Failed() {
				return
			}
			if again := runOverlapSoak(t, seed); again != sum {
				t.Errorf("seed %d diverged across runs:\n first: %+v\nsecond: %+v", seed, sum, again)
			}
			if sum.killInside {
				inside++
			}
			aborts += sum.aborted
			t.Logf("seed %d: %+v", seed, sum)
		})
	}
	if inside == 0 || aborts == 0 {
		t.Errorf("%d kills landed inside a resync, %d aborts reported: the soak never exercises the overlap", inside, aborts)
	}
}
