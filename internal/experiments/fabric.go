package experiments

import (
	"fmt"
	"strings"

	"repro/internal/blockdev"
	"repro/internal/ftl"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// The fabric harness: every serving-fabric experiment (E16–E24) is one
// fabricCase — a serve.Config plus what that experiment varies — run by
// runFabric (a tenant mix over a measurement window) or runLedgered
// (ledgered writers, then a full read-back). The build → preload → age
// → reset → arm → drive → stop sequence is written here once, so two
// runs of one sweep differ by exactly the fields their cases differ by.

// stackModes and shardCounts are the two axes every fabric sweep walks.
var (
	stackModes  = []blockdev.Mode{blockdev.SingleQueue, blockdev.MultiQueue, blockdev.Direct}
	shardCounts = []int{1, 4, 16}
)

// The device queue every fabric and E15's stack run behind: at most
// deviceQueueDepth commands outstanding at the device, and DRR billing a
// write deviceWriteCost reads — near the MLC program/read service-time
// ratio (1300µs / 75µs), so the scheduler shares device time rather than
// op count.
const (
	deviceQueueDepth = 4
	deviceWriteCost  = 16
)

// fabricConfig is the one base configuration: an always-scheduled,
// admission-controlled fabric of shards KV shards on devices built from
// opts. Experiments change the few fields they study.
func fabricConfig(mode blockdev.Mode, shards int, opts ssd.Options) serve.Config {
	return serve.Config{
		Shards:        shards,
		Mode:          mode,
		DeviceOptions: opts,
		Scheduled:     true,
		WriteCost:     deviceWriteCost,
		QueueDepth:    deviceQueueDepth,
		LogPages:      12,
		// A small page cache so point reads actually touch flash, and
		// checkpoints frequent enough to keep WALs inside their rings.
		Store: kvstore.Config{CacheFrames: 4, CheckpointBytes: 4 << 10},
		Admission: serve.AdmissionConfig{
			Enabled:            true,
			QueueLimit:         12,
			LatencyDeadline:    2 * sim.Millisecond,
			ThroughputDeadline: 20 * sim.Millisecond,
			Rate:               6000,
			Burst:              32,
		},
	}
}

// agedOptions is the device an aged case runs on. A deliberately small
// fabric, so churn reaches GC steady state in a few passes (a big
// device would never collect inside the window). Unbuffered flash:
// every WAL and checkpoint write programs real pages, so churn actually
// drains the free pools and the window runs with GC live — the
// interference a write cache would only postpone (the same reason E15
// measures against Enterprise2012Unbuffered). The low watermark is
// raised (widening the deferrable headroom above the floor, which stays
// at the GC reserve — deferral can never eat the blocks cleaning needs)
// and the high watermark kept close, so at steady state the window's
// own writes keep re-triggering GC: exactly the background traffic
// coordination exists to shape.
func agedOptions(scale Scale, chipsPerChannel int) ssd.Options {
	return ssd.Options{
		Channels:        2,
		ChipsPerChannel: chipsPerChannel,
		BlocksPerPlane:  scale.pick(24, 32),
		PagesPerBlock:   scale.pick(16, 32),
		BufferPages:     -1,
		GCLowWater:      scale.pick(6, 8),
		GCHighWater:     scale.pick(8, 10),
	}
}

// adaptivePlane closes the three feedback loops of E18 over cfg, each
// acting on what the device reports: calibrated read/write billing
// (observed service times), adaptive deadlines and early drops (the
// observed p99), and urgency-sized GC leases (reported GC urgency).
func adaptivePlane(scale Scale, cfg *serve.Config) {
	cfg.Calibrate = true
	// The observation window (4 sub-windows) spans one quarter of the
	// measurement window at either scale: long enough that the billing
	// statistic is a stable uniform mean rather than a noisy snapshot,
	// short enough to forget the pre-aging device within half the
	// window — and the same span the ground truth integrates over, so
	// the acceptance comparison is like-for-like.
	cfg.CalibrateWindow = sim.Time(scale.pick(2500, 5000)) * sim.Microsecond
	cfg.Admission.Adaptive = true
	cfg.Sched.GCLeaseAdaptive = true
}

// saturationSpecs is the closed-loop mix that pins the fabric at its
// ceiling: latency-sensitive point readers plus throughput writers,
// depths widened linearly with the shard count (unlike E16's
// overloadSpecs this does not cap at 32 — per-shard demand must stay
// constant all the way to 16 shards, or the sweep's biggest point
// would run unsaturated and measure idle time instead of the ceiling).
func saturationSpecs(shards int) []workload.TenantSpec {
	return []workload.TenantSpec{
		{Name: "point-reads", LatencySensitive: true, Weight: 2, Pattern: workload.RR, Depth: 4 * shards, Seed: 231},
		{Name: "writers", Weight: 1, Pattern: workload.RW, Depth: 8 * shards, Seed: 232},
	}
}

// saturated is the case E23 and E24 share: the base fabric with
// telemetry on, on fresh buffered devices, pinned at its ceiling by
// saturationSpecs.
func saturated(scale Scale, mode blockdev.Mode, shards int) fabricCase {
	cfg := fabricConfig(mode, shards, smallOptions(scale))
	cfg.Telemetry = true
	return fabricCase{cfg: cfg, specs: saturationSpecs(shards), window: scale.ms(20, 60)}
}

// fabricCase is one fabric run: the configuration and what is done to
// it.
type fabricCase struct {
	cfg serve.Config
	// replicated puts every logical shard on two devices behind a
	// place.Placement router (fabricRun.pl).
	replicated bool
	// aged churns the preloaded fabric until every device is at GC
	// steady state, so the window runs against live collection: the
	// steady state of a served device, and the only state with anything
	// to coordinate.
	aged   bool
	specs  []workload.TenantSpec // the client mix replayed for window
	window sim.Time
	// armed, when set, runs at window start — counters reset, no client
	// op issued yet — to schedule the case's mid-window events.
	armed func(*fabricRun) error
}

// fabricRun is a finished (or, inside armed, starting) fabric run.
type fabricRun struct {
	eng    *sim.Engine
	fab    *serve.Fabric
	fe     *serve.Frontend
	pl     *place.Placement // nil unless the case is replicated
	lat    *metrics.TenantLatencies
	start  sim.Time // window start
	window sim.Time
	// totals is the fabric-wide admission ledger over the window, read
	// once the engine has drained.
	totals metrics.ShardCounters
}

// runFabric builds c's fabric, preloads (and ages) it, resets the
// counters, arms c's events, and replays c.specs for c.window.
func runFabric(scale Scale, c fabricCase) (*fabricRun, error) {
	run := &fabricRun{eng: sim.NewEngine(), lat: metrics.NewTenantLatencies(), window: c.window}
	var ferr error
	run.eng.Go(func(p *sim.Proc) { ferr = run.serveWindow(p, scale, c) })
	run.eng.Run()
	if ferr != nil {
		return nil, ferr
	}
	run.totals = run.fab.Stats().Totals()
	return run, nil
}

// serveWindow is runFabric's simulated process.
func (r *fabricRun) serveWindow(p *sim.Proc, scale Scale, c fabricCase) error {
	// Enough keys per shard that each tree spans several pages: point
	// reads and scans must touch flash past the 4-frame cache, or the
	// "overload" would be served from RAM.
	if err := r.open(p, c.cfg, c.replicated, int64(c.cfg.Shards*scale.pick(320, 480))); err != nil {
		return err
	}
	if c.aged {
		for round := 0; round < 40 && !r.gcAged(); round++ {
			if err := r.fe.Churn(p, 1); err != nil {
				return err
			}
		}
	}
	r.fab.ResetStats()
	r.start = p.Now()
	if c.armed != nil {
		if err := c.armed(r); err != nil {
			return err
		}
	}
	horizon := r.start + c.window
	if err := r.fe.Drive(c.specs, horizon, r.lat); err != nil {
		return err
	}
	r.fab.StopAt(horizon, false)
	return nil
}

// open assembles the fabric, a frontend over keys keys (routed through
// a placement over two replicas per shard when replicated), and
// preloads every key.
func (r *fabricRun) open(p *sim.Proc, cfg serve.Config, replicated bool, keys int64) error {
	if replicated {
		cfg.Replicas = 2
	}
	f, err := serve.New(p, r.eng, cfg)
	if err != nil {
		return err
	}
	r.fab = f
	r.fe = serve.NewFrontend(f, keys, 48)
	r.fe.ScanLimit = 16
	if replicated {
		if r.pl, err = place.New(f); err != nil {
			return err
		}
		r.pl.Attach(r.fe)
	}
	return r.fe.Preload(p)
}

// devices lists the fabric's flash devices, spares included.
func (r *fabricRun) devices() []*ssd.Device {
	devs := make([]*ssd.Device, r.fab.Devices())
	for d := range devs {
		devs[d] = r.fab.Device(d)
	}
	return devs
}

// gcAged reports whether every device in the fabric is at GC steady
// state: cumulative GC erases of at least half its block population,
// which means the free pools are cycling at the watermarks and any
// further write pressure runs concurrently with collection.
func (r *fabricRun) gcAged() bool {
	for _, dev := range r.devices() {
		pf, ok := dev.FTL().(*ftl.PageFTL)
		if !ok {
			continue
		}
		if pf.Stats().GCErases < pf.Array().TotalBlocks()/2 {
			return false
		}
	}
	return true
}

// agedAt is when E18's and E21's devices drift: the half-window mark.
func (r *fabricRun) agedAt() sim.Time { return r.start + r.window/2 }

// ageAt schedules wear drift on every device at virtual time at:
// programs slow 2.5×, reads 1.3×, erases 1.6× — invisible through the
// block interface except as service times.
func (r *fabricRun) ageAt(at sim.Time) {
	r.eng.Schedule(at, func() {
		for _, dev := range r.devices() {
			dev.AgeTiming(1.3, 2.5, 1.6)
		}
	})
}

// ls is the latency-sensitive tenant's served-latency histogram (every
// mix names that tenant "point-reads").
func (r *fabricRun) ls() *metrics.Histogram { return r.lat.Hist("point-reads") }

// servedPerSec is the window's served-request rate.
func (r *fabricRun) servedPerSec() float64 {
	return float64(r.totals.Served) / r.window.Seconds()
}

// series dumps the sampler's rings, keeping the series whose names
// start with one of prefixes.
func (r *fabricRun) series(prefixes ...string) *obs.SeriesDump {
	dump := r.fab.Sampler().Dump()
	var keep []obs.SeriesData
	for _, s := range dump.Series {
		for _, prefix := range prefixes {
			if strings.HasPrefix(s.Name, prefix) {
				keep = append(keep, s)
				break
			}
		}
	}
	dump.Series = keep
	return &dump
}

// ledgerRun is a ledgered-writers run's outcome: the fabric, the
// read-back verdicts, and the readers' latencies split by whether any
// replica group was degraded when the read was issued.
type ledgerRun struct {
	*fabricRun
	lost, stale       int // replicas missing a key / holding an unexpected value
	degraded, healthy metrics.Histogram
}

// ledgerConfig is the fabric both ledgered runs serve from: the base
// configuration with admission off (every refused write is the
// ledger's business, not the bucket's), two placed devices plus a spare
// to migrate or rebuild onto, and unbuffered flash at the factory
// watermarks — nothing here is pre-aged.
func ledgerConfig(scale Scale, mode blockdev.Mode, shards int) serve.Config {
	opts := agedOptions(scale, scale.pick(2, 4))
	opts.GCLowWater, opts.GCHighWater = 0, 0
	cfg := fabricConfig(mode, shards, opts)
	cfg.Admission.Enabled = false
	cfg.Store.CheckpointBytes = 8 << 10
	cfg.Devices, cfg.Spares = 2, 1
	return cfg
}

// runLedgered serves cfg (a ledgerConfig) replicated, with the mover
// running, to writers that own disjoint key ranges and ledger every
// acknowledged value, plus strided readers, for 40/60 ms; armed
// schedules the failure the run is about. Writers also ledger every
// value a failed Put may still have applied on a survivor (a quorum leg
// that raced the failure). After the fabric has drained — with room
// for in-flight migrations and repairs to finish: bulk-copying onto
// fresh unbuffered flash pays real program latency for every page —
// every replica of every key is read back: a missing key is lost, a
// value that is neither the last ack nor such a racer is stale.
func runLedgered(scale Scale, cfg serve.Config, mover place.MoverConfig, armed func(*fabricRun) error) (*ledgerRun, error) {
	run := &ledgerRun{fabricRun: &fabricRun{eng: sim.NewEngine(), window: scale.ms(40, 60)}}
	eng := run.eng
	keys := int64(scale.pick(512, 1024))
	const writers = 6
	acked := make(map[int64][]byte)
	racers := make(map[int64]map[string]bool)
	var ferr error
	eng.Go(func(p *sim.Proc) {
		if ferr = run.open(p, cfg, true, keys); ferr != nil {
			return
		}
		fe, pl := run.fe, run.pl
		// The preload's deterministic values are the ledger's seed.
		for i := int64(0); i < keys; i++ {
			v := make([]byte, 48)
			for j := range v {
				v[j] = byte(int64(j) + i)
			}
			acked[i] = v
		}
		pl.StartMover(mover)
		run.start = p.Now()
		horizon := run.start + run.window
		if ferr = armed(run.fabricRun); ferr != nil {
			return
		}
		for w := 0; w < writers; w++ {
			eng.Go(func(p *sim.Proc) {
				for seq := 0; p.Now() < horizon; seq++ {
					k := int64(w) + writers*int64(seq%(int(keys)/writers))
					v := []byte(fmt.Sprintf("w%d-s%d", w, seq))
					if err := fe.Put(p, k, v); err == nil {
						acked[k] = v
						delete(racers, k)
					} else {
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
					hist := &run.healthy
					for _, g := range pl.Groups() {
						if g.Degraded() {
							hist = &run.degraded
							break
						}
					}
					start := p.Now()
					if err := fe.Get(p, (i*61)%keys); err == nil {
						hist.Record(int64(p.Now() - start))
					} else {
						p.Sleep(50 * sim.Microsecond)
					}
				}
			})
		}
		run.fab.StopAt(horizon+scale.ms(160, 240), true)
	})
	eng.Run()
	if ferr != nil {
		return nil, ferr
	}
	eng.Go(func(p *sim.Proc) {
		for i := int64(0); i < keys; i++ {
			key := run.fe.Key(i)
			for _, sys := range run.fe.TargetFor(key).Systems() {
				got, err := sys.Store.Get(p, key)
				switch {
				case err != nil:
					run.lost++
				case string(got) != string(acked[i]) && !racers[i][string(got)]:
					run.stale++
				}
			}
		}
	})
	eng.Run()
	return run, nil
}
