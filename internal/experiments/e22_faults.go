package experiments

import (
	"fmt"
	"strings"

	"repro/internal/blockdev"
	"repro/internal/faults"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// E22DeviceDeath makes whole-device failure a measured event instead of
// an exception path: a fault-injection plan kills one of a replicated
// fabric's devices at half-window under full load. Every replica group
// with data there degrades to its survivor in the same instant (the
// device-health signal), serves at R=1 through the degraded window,
// and is rebuilt onto the spare device from the survivor's snapshot
// plus delta catch-up — while writers and readers never stop. Scored
// per stack mode: acknowledged writes lost on full read-back (must be
// zero — quorum means the survivor holds every acked write), time from
// death to full re-replication, and the latency-class p99 inside the
// degraded window vs outside it.
func E22DeviceDeath(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E22",
		Title: "device death under load: degrade to survivor, rebuild onto spare, lose nothing",
		Claim: "a peer-interface fabric survives whole-device death as an operational event, not an outage: quorum writes make the survivor a complete copy, steered reads keep serving through the degraded window, and the migration machinery rebuilds replication onto a spare with zero acknowledged writes lost",
	}
	t := metrics.NewTable("Device 0 killed at half-window (R=2 + spare, full load, rebuild from survivor)",
		"stack", "shards", "lost", "stale", "repairs", "re-replicated (µs)",
		"degraded p99 (µs)", "healthy p99 (µs)", "degraded writes", "unavailable")

	modes := []blockdev.Mode{blockdev.SingleQueue, blockdev.MultiQueue, blockdev.Direct}
	shards := scale.pick(4, 16)
	res.Headline = map[string]float64{}
	var show *deathRun
	var lostTotal, staleTotal int

	for _, mode := range modes {
		run, err := runDeathConfig(scale, mode, shards)
		if err != nil {
			return nil, err
		}
		led := run.repled
		t.AddRow(mode.String(), shards, run.lost, run.stale,
			led.Repairs, us(run.ttrNs), us(run.degradedP99), us(run.healthyP99),
			led.DegradedWrites, led.Unavailable)
		lostTotal += run.lost
		staleTotal += run.stale
		res.Headline["lost_acked_writes_"+mode.String()] = float64(run.lost)
		res.Headline["ls_p99_us_degraded_"+mode.String()] = float64(run.degradedP99) / 1e3
		res.Headline["ls_p99_us_healthy_"+mode.String()] = float64(run.healthyP99) / 1e3
		res.Headline["time_to_re_replicated_us_"+mode.String()] = float64(run.ttrNs) / 1e3
		if mode == blockdev.MultiQueue {
			show = run
		}
	}
	res.Headline["lost_acked_writes"] = float64(lostTotal)
	res.Headline["stale_acked_writes"] = float64(staleTotal)
	if show != nil {
		res.Headline["repairs"] = float64(show.repled.Repairs)
		res.Headline["replicas_lost"] = float64(show.repled.ReplicasLost)
		res.Headline["degraded_writes"] = float64(show.repled.DegradedWrites)
		res.Tables = append(res.Tables, t,
			show.repled.Table("Repair ledger: MultiQueue"))
		// The placement series are the telemetry face of this PR: device
		// deaths, degraded traffic and repairs as time series on the same
		// clock as everything else. Export just them — the rest of the
		// sampler's schema belongs to E21.
		dump := obs.SeriesDump{IntervalUs: show.series.IntervalUs, Ticks: show.series.Ticks}
		for _, s := range show.series.Series {
			if strings.HasPrefix(s.Name, "place.") {
				dump.Series = append(dump.Series, s)
			}
		}
		res.Series = &dump
	} else {
		res.Tables = append(res.Tables, t)
	}
	res.Finding = fmt.Sprintf(
		"killing a device mid-run lost %d acknowledged writes across all three stacks (%d stale) by full read-back: every degraded group kept serving from its survivor and was re-replicated onto the spare in %.0fµs (MultiQueue), with %d writes accepted during the degraded window",
		lostTotal, staleTotal, res.Headline["time_to_re_replicated_us_MultiQueue"], int64(res.Headline["degraded_writes"]))
	return res, nil
}

// deathRun is one stack mode's measured outcome.
type deathRun struct {
	lost, stale int // read-back verdicts (stale = unexpected value)
	repled      metrics.RepairLedger
	ttrNs       int64 // device-down event to last repair-done event
	degradedP99 int64 // latency-class read p99 while any group degraded
	healthyP99  int64
	series      *obs.SeriesDump
}

// runDeathConfig builds the replicated fabric with a spare, drives
// disjoint-key writers plus readers, and arms a fault plan killing
// device 0 at half-window. Writers ledger every acknowledged value and
// every value a failed Put may still have applied on a survivor (a
// quorum leg that raced the kill); read-back charges a replica for any
// value that is neither the last ack nor such a racer.
func runDeathConfig(scale Scale, mode blockdev.Mode, shards int) (*deathRun, error) {
	eng := sim.NewEngine()
	opts := ssd.Options{Channels: 2, ChipsPerChannel: scale.pick(2, 4),
		BlocksPerPlane: scale.pick(24, 32), PagesPerBlock: scale.pick(16, 32)}
	opts.BufferPages = -1
	cfg := serve.Config{
		Shards:        shards,
		Replicas:      2,
		Devices:       2,
		Spares:        1,
		Mode:          mode,
		DeviceOptions: opts,
		Scheduled:     true,
		WriteCost:     16,
		QueueDepth:    4,
		LogPages:      12,
		Store:         kvstore.Config{CacheFrames: 4, CheckpointBytes: 8 << 10},
		Sample:        obs.SampleConfig{Interval: sim.Millisecond},
		Monitor:       true,
	}
	keys := int64(scale.pick(512, 1024))
	const writers = 6
	acked := make(map[int64][]byte)
	racers := make(map[int64]map[string]bool)
	run := &deathRun{}
	var degHist, okHist metrics.Histogram
	var pl *place.Placement
	var fe *serve.Frontend
	var fab *serve.Fabric
	var ferr error
	eng.Go(func(p *sim.Proc) {
		f, err := serve.New(p, eng, cfg)
		if err != nil {
			ferr = err
			return
		}
		fab = f
		if pl, err = place.New(f); err != nil {
			ferr = err
			return
		}
		fe = serve.NewFrontend(f, keys, 48)
		pl.Attach(fe)
		if err := fe.Preload(p); err != nil {
			ferr = err
			return
		}
		for i := int64(0); i < keys; i++ {
			v := make([]byte, 48)
			for j := range v {
				v[j] = byte(int64(j) + i)
			}
			acked[i] = v
		}
		pl.StartMover(place.MoverConfig{
			Interval:  250 * sim.Microsecond,
			CopyBatch: 16,
		})
		horizon := p.Now() + sim.Time(scale.pick(40, 60))*sim.Millisecond
		// The tentpole injection: device 0 dies at half-window. Armed
		// through the harness so the experiment exercises the same path
		// the soak tests replay.
		inj := faults.NewInjector(eng, f)
		if err := inj.Arm(faults.Plan{
			{Kind: faults.KillDevice, Device: 0, Frac: 0.5},
		}, p.Now(), horizon); err != nil {
			ferr = err
			return
		}
		degraded := func() bool {
			for _, g := range pl.Groups() {
				if g.Degraded() {
					return true
				}
			}
			return false
		}
		for w := 0; w < writers; w++ {
			w := w
			eng.Go(func(p *sim.Proc) {
				seq := 0
				for p.Now() < horizon {
					k := int64(w) + writers*int64(seq%(int(keys)/writers))
					v := []byte(fmt.Sprintf("w%d-s%d", w, seq))
					seq++
					if err := fe.Put(p, k, v); err == nil {
						acked[k] = v
						delete(racers, k)
					} else {
						// The failed quorum write may still have applied on a
						// survivor leg before another leg died: remember the
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
					deg := degraded()
					start := p.Now()
					err := fe.Get(p, (i*61)%keys)
					if err == nil {
						if deg {
							degHist.Record(int64(p.Now() - start))
						} else {
							okHist.Record(int64(p.Now() - start))
						}
					} else {
						p.Sleep(50 * sim.Microsecond)
					}
				}
			})
		}
		// Rebuilding every lost replica onto the spare streams whole
		// regions onto unbuffered flash; leave post-horizon room for the
		// queue of repairs to drain before scoring re-replication.
		f.StopAt(horizon+sim.Time(scale.pick(160, 240))*sim.Millisecond, true)
	})
	eng.Run()
	if ferr != nil {
		return nil, ferr
	}
	run.repled = pl.RepairLedger()
	run.degradedP99 = degHist.P99()
	run.healthyP99 = okHist.P99()
	if s := fab.Sampler(); s != nil {
		dump := s.Dump()
		run.series = &dump
	}
	var downAt, lastRepair sim.Time
	for _, ev := range fab.Monitor().Events() {
		switch ev.Kind {
		case obs.EventDeviceDown:
			downAt = ev.At
		case obs.EventRepairDone:
			if ev.At > lastRepair {
				lastRepair = ev.At
			}
		}
	}
	if lastRepair > downAt && downAt > 0 {
		run.ttrNs = int64(lastRepair - downAt)
	}
	// Full read-back: every live replica of every key must hold the last
	// acknowledged value (or a racer — see above). Anything else is a
	// lost acked write.
	eng.Go(func(p *sim.Proc) {
		for i := int64(0); i < keys; i++ {
			key := fe.Key(i)
			for _, sys := range fe.TargetFor(key).Systems() {
				got, err := sys.Store.Get(p, key)
				if err != nil {
					run.lost++
					continue
				}
				if string(got) == string(acked[i]) || racers[i][string(got)] {
					continue
				}
				run.stale++
			}
		}
	})
	eng.Run()
	return run, nil
}
