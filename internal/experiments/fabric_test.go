package experiments

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// mixedCase is the smallest real fabric case: the base fabric on fresh
// devices under the MixedRW overload for 20 ms.
func mixedCase(shards int) fabricCase {
	return fabricCase{
		cfg:    fabricConfig(blockdev.MultiQueue, shards, smallOptions(Quick)),
		specs:  overloadSpecs(workload.MixedRWMix(), shards),
		window: 20 * sim.Millisecond,
	}
}

// TestRunFabricTotalsCoverTheWindow pins what fabricRun.totals means:
// the ledger of the whole window, read after the engine drained — every
// request a client saw served is in it, and nothing from the preload —
// and the window ends when the harness says it does.
func TestRunFabricTotalsCoverTheWindow(t *testing.T) {
	for _, shards := range []int{1, 4} {
		c := mixedCase(shards)
		var stoppedBefore, stoppedAt bool
		c.armed = func(r *fabricRun) error {
			// The second probe is scheduled from inside the first, so at
			// start+window it runs after the harness's own stop event.
			r.eng.Schedule(r.start+r.window-1, func() {
				stoppedBefore = r.fab.Stopped()
				r.eng.Schedule(r.start+r.window, func() { stoppedAt = r.fab.Stopped() })
			})
			return nil
		}
		run, err := runFabric(Quick, c)
		if err != nil {
			t.Fatal(err)
		}
		var clientServed int64
		for _, tenant := range run.lat.Tenants() {
			clientServed += run.lat.Hist(tenant).Count()
		}
		if run.totals.Served == 0 || run.totals.Served != clientServed {
			t.Errorf("%d shards: totals.Served = %d, clients recorded %d served requests",
				shards, run.totals.Served, clientServed)
		}
		if stoppedBefore || !stoppedAt {
			t.Errorf("%d shards: Stopped() = %v one tick before start+window and %v at it, want false then true",
				shards, stoppedBefore, stoppedAt)
		}
		if !run.fab.Stopped() || run.window != c.window {
			t.Errorf("%d shards: run ended with Stopped() = %v, window %v", shards, run.fab.Stopped(), run.window)
		}
	}
}

// TestArmedEventsFireInsideTheWindow pins where the armed hook sits: at
// window start, after the counters were reset and before any client op,
// holding a run whose events land at the instants they name.
func TestArmedEventsFireInsideTheWindow(t *testing.T) {
	c := mixedCase(4)
	var atArm metrics.ShardCounters
	tenantsAtArm := -1
	c.armed = func(r *fabricRun) error {
		atArm = r.fab.Stats().Totals()
		tenantsAtArm = len(r.lat.Tenants())
		if now := r.eng.Now(); now != r.start {
			t.Errorf("armed ran at %v, start is %v", now, r.start)
		}
		return nil
	}
	run, err := runFabric(Quick, c)
	if err != nil {
		t.Fatal(err)
	}
	if atArm != (metrics.ShardCounters{}) || tenantsAtArm != 0 {
		t.Errorf("inside armed: counters %+v, %d tenants with latencies; want the preload reset away and no client op yet",
			atArm, tenantsAtArm)
	}
	if run.totals.Submitted == 0 {
		t.Error("no client op followed the armed hook")
	}

	// An idle window (no client mix) on unbuffered flash, probed with raw
	// page writes: one long before the half-window mark, one that
	// completes just before it, one at the mark, scheduled after ageAt
	// so it runs behind the aging event in the same instant.
	idle := fabricCase{
		cfg:    fabricConfig(blockdev.MultiQueue, 1, agedOptions(Quick, 2)),
		window: 20 * sim.Millisecond,
	}
	var early, before, after sim.Time
	idle.armed = func(r *fabricRun) error {
		dev := r.fab.Device(0)
		probe := func(at sim.Time, lat *sim.Time) {
			r.eng.Schedule(at, func() {
				dev.Write(dev.Capacity()-1, nil, func(error) { *lat = r.eng.Now() - at })
			})
		}
		mid := r.start + r.window/2
		probe(r.start+r.window/4, &early)
		probe(mid-sim.Millisecond, &before)
		r.ageAt(mid)
		probe(mid, &after)
		return nil
	}
	if _, err := runFabric(Quick, idle); err != nil {
		t.Fatal(err)
	}
	if early == 0 || early >= sim.Millisecond || before != early {
		t.Errorf("page write latency %v a quarter in, %v in the last millisecond before the aging instant: want equal, nonzero and under 1ms", early, before)
	}
	if after <= before {
		t.Errorf("page write at the aging instant took %v, before it %v: programs should be 2.5x slower from that instant", after, before)
	}
}

// TestTelemetryChargesNoVirtualTime is the proof E20, E21 and E24 cite:
// telemetry — tracer, sampler, monitor and profiler together — is
// host-side bookkeeping that charges no virtual time. Every case those
// experiments measure is run with telemetry on and again with it off:
// E20's aged read fan-out at 16 shards, E21's adaptive overload with
// mid-window aging, and E24's saturated 1-, 4- and 16-shard cases, on
// all three stacks. Each pair must agree exactly on the window's
// admission ledger, every tenant's latency histogram, every device's
// FTL counters and the final clock.
func TestTelemetryChargesNoVirtualTime(t *testing.T) {
	cases := map[string]fabricCase{}
	for _, mode := range stackModes {
		cases[fmt.Sprintf("E20/%s/16", mode)] = obsCase(Quick, mode, 16)
		cases[fmt.Sprintf("E21/%s/%d", mode, e21Shards)] = monitorCase(Quick, mode, true)
		for _, n := range shardCounts {
			cases[fmt.Sprintf("E24/%s/%d", mode, n)] = saturated(Quick, mode, n)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		c := cases[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			on, err := runFabric(Quick, c)
			if err != nil {
				t.Fatal(err)
			}
			c.cfg.Telemetry = false
			off, err := runFabric(Quick, c)
			if err != nil {
				t.Fatal(err)
			}
			if on.fab.Sampler().Ticks() == 0 || off.fab.Sampler() != nil {
				t.Fatalf("telemetry on ticked %d times; off built a sampler: %v",
					on.fab.Sampler().Ticks(), off.fab.Sampler() != nil)
			}
			for _, d := range virtualDiff(on, off) {
				t.Errorf("telemetry on vs off: %s", d)
			}
		})
	}
}

// virtualDiff lists what two runs of one case disagree on in virtual
// time: the window's admission ledgers (fabric-wide and per shard),
// the tenants' latency histograms, the devices' FTL counters and the
// clock the run ended at.
func virtualDiff(a, b *fabricRun) []string {
	var diffs []string
	if a.totals != b.totals {
		diffs = append(diffs, fmt.Sprintf("window totals %+v vs %+v", a.totals, b.totals))
	}
	if sa, sb := a.fab.Stats().Shards(), b.fab.Stats().Shards(); !slices.Equal(sa, sb) {
		diffs = append(diffs, fmt.Sprintf("shards %v vs %v", sa, sb))
	} else {
		for _, name := range sa {
			if ca, cb := *a.fab.Stats().Shard(name), *b.fab.Stats().Shard(name); ca != cb {
				diffs = append(diffs, fmt.Sprintf("%s counters %+v vs %+v", name, ca, cb))
			}
		}
	}
	if ta, tb := a.lat.Tenants(), b.lat.Tenants(); !slices.Equal(ta, tb) {
		diffs = append(diffs, fmt.Sprintf("tenants %v vs %v", ta, tb))
	} else {
		for _, name := range ta {
			if ha, hb := a.lat.Hist(name), b.lat.Hist(name); !reflect.DeepEqual(ha, hb) {
				diffs = append(diffs, fmt.Sprintf("%s latency: %d samples p99 %d vs %d samples p99 %d",
					name, ha.Count(), ha.P99(), hb.Count(), hb.P99()))
			}
		}
	}
	for d, dev := range a.devices() {
		if fa, fb := dev.FTL().Stats(), b.fab.Device(d).FTL().Stats(); !reflect.DeepEqual(fa, fb) {
			diffs = append(diffs, fmt.Sprintf("device %d FTL %+v vs %+v", d, fa, fb))
		}
	}
	if a.eng.Now() != b.eng.Now() {
		diffs = append(diffs, fmt.Sprintf("final clock %v vs %v", a.eng.Now(), b.eng.Now()))
	}
	return diffs
}
