package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

const (
	kvValueSize = 48
	// rejectBackoff is how long a client waits before retrying an op
	// the fabric refused (serve.Frontend's own closed-loop default).
	rejectBackoff = 100 * sim.Microsecond
	kvScanLimit   = 16
	// maxBackoffShift caps the exponential back-off at 2^5 × 100 us.
	maxBackoffShift = 5
)

// kvShape is what differs between the two kv workloads.
type kvShape struct {
	cfg  serve.Config
	keys int64
	// replicated routes through a place.Placement (cfg.Replicas > 1).
	replicated bool
	// Closed loop: readers latency-class point-get clients and writers
	// throughput-class put clients, each with one op outstanding, plus
	// mixers clients that draw every op from the open-loop mix.
	readers, writers, mixers int
	// Open loop (ratePerS > 0): Poisson arrivals at this rate; getShare
	// of them Zipf(0.99) gets, putShare uniform puts, the rest scans.
	ratePerS           float64
	getShare, putShare float64
	// warmOps of the same traffic run before the window opens.
	warmOps int
	// maxChurn bounds the set-up's churn rounds.
	maxChurn int
}

// kvSpanNames names the root span of each op kind.
var kvSpanNames = map[serve.OpKind]string{serve.OpGet: "serve.get", serve.OpPut: "serve.put", serve.OpScan: "serve.scan"}

// kvOp is one client operation, alive until it is served.
type kvOp struct {
	kind  serve.OpKind
	class sched.Class
	key   int64
	ver   uint32
	due   sim.Time
	rec   bool
	span  int64
	slot  int // closed loop: the client that issues its next op after this one
	tries int // refusals so far
}

// kvLoad drives serve.Frontend.Submit from events: no client processes,
// so the host cost measured is the fabric's, not the generator's.
type kvLoad struct {
	eng   *sim.Engine
	fe    *serve.Frontend
	tr    *tracer
	shape *kvShape
	rng   *sim.RNG
	zipf  *sim.Zipf
	snap  func() counters

	warm, n, issued, settled int
	errs                     int
	v                        *virt
	nextDue                  sim.Time

	// ver is the version of the last served put per key (0 = the value
	// set-up left); putBusy marks keys with a put in flight, which the
	// generator never doubles up on, so ver is what each replica holds.
	ver     []uint32
	putBusy []bool
	// setupSalt is the salt of the values set-up left (serve.Frontend
	// rotates it once per churn round).
	setupSalt byte
	firstErr  error
}

// putValue is the value version ver of key i carries.
func putValue(i int64, ver uint32) []byte {
	v := make([]byte, kvValueSize)
	binary.LittleEndian.PutUint64(v, uint64(i))
	binary.LittleEndian.PutUint32(v[8:], ver)
	for j := 12; j < len(v); j++ {
		v[j] = byte(int64(j) + i + int64(ver))
	}
	return v
}

// setupValue is the value serve.Frontend's Preload/Churn wrote for key
// i in the round with this salt.
func setupValue(i int64, salt byte) []byte {
	v := make([]byte, kvValueSize)
	for j := range v {
		v[j] = byte(int64(j)+i) ^ salt
	}
	return v
}

func (l *kvLoad) freePutKey() int64 {
	for {
		k := l.rng.Int63n(l.shape.keys)
		if !l.putBusy[k] {
			return k
		}
	}
}

// draw generates the next op of the open-loop mix.
func (l *kvLoad) draw() *kvOp {
	u := l.rng.Float64()
	switch {
	case u < l.shape.getShare:
		return &kvOp{kind: serve.OpGet, class: sched.LatencySensitive, key: l.zipf.Next()}
	case u < l.shape.getShare+l.shape.putShare:
		return &kvOp{kind: serve.OpPut, class: sched.Throughput, key: l.freePutKey()}
	default:
		return &kvOp{kind: serve.OpScan, class: sched.Throughput, key: l.rng.Int63n(l.shape.keys)}
	}
}

// issue starts the next op of closed-loop client slot (readers first).
func (l *kvLoad) issue(slot int) {
	if l.issued >= l.n {
		return
	}
	var op *kvOp
	switch {
	case slot < l.shape.readers:
		op = &kvOp{kind: serve.OpGet, class: sched.LatencySensitive, key: l.rng.Int63n(l.shape.keys)}
	case slot < l.shape.readers+l.shape.writers:
		op = &kvOp{kind: serve.OpPut, class: sched.Throughput, key: l.freePutKey()}
	default:
		op = l.draw()
	}
	op.slot = slot
	l.begin(op, l.eng.Now())
}

// arrive is the open loop: each arrival schedules the next one an
// exponential gap later, whatever the fabric is doing.
func (l *kvLoad) arrive() {
	if l.issued >= l.n {
		return
	}
	op := l.draw()
	op.slot = -1
	l.begin(op, l.nextDue)
	gap := sim.Time(l.rng.Exp(1e9 / l.shape.ratePerS))
	if gap < 1 {
		gap = 1
	}
	l.nextDue += gap
	l.eng.Schedule(l.nextDue, l.arrive)
}

func (l *kvLoad) begin(op *kvOp, due sim.Time) {
	op.rec = l.issued >= l.warm
	l.issued++
	op.due = due
	if op.kind == serve.OpPut {
		l.putBusy[op.key] = true
		op.ver = l.ver[op.key] + 1
	}
	if op.rec {
		if l.v.attempted == 0 {
			l.v.start = due
		}
		half := 0
		if l.v.attempted >= int64(l.n-l.warm)/2 {
			half = 1
		}
		l.v.backlog[half] += int64(l.issued - 1 - l.settled)
		l.v.arrivals[half]++
		l.v.attempted++
		op.span = l.tr.open(kvSpanNames[op.kind], 0)
	}
	l.submit(op)
}

func (l *kvLoad) submit(op *kvOp) {
	key := l.fe.Key(op.key)
	if op.rec {
		l.v.submissions++
		l.v.queueSeen += queueLen(l.fe.TargetFor(key))
	}
	sop := serve.Op{Kind: op.kind, Key: key, Class: op.class, ScanLimit: kvScanLimit}
	if op.kind == serve.OpPut {
		sop.Value = putValue(op.key, op.ver)
	}
	l.fe.Submit(sop, func(err error) { l.done(op, err) })
}

// queueLen is the admission-queue length a submission to t finds: the
// shard's own, or the mean over a replica group's shards.
func queueLen(t serve.Target) int64 {
	switch t := t.(type) {
	case *serve.Shard:
		return int64(t.QueueLen())
	case *place.Group:
		var n int
		for _, sh := range t.Replicas() {
			n += sh.QueueLen()
		}
		return int64(n / len(t.Replicas()))
	}
	return 0
}

func (l *kvLoad) done(op *kvOp, err error) {
	if errors.Is(err, serve.ErrRejected) {
		// Refused at admission: the client backs off and tries again. The
		// op is still timed from when it was first due.
		back := rejectBackoff << min(op.tries, maxBackoffShift)
		op.tries++
		l.eng.After(back, func() { l.submit(op) })
		return
	}
	l.settled++
	if op.kind == serve.OpPut {
		l.putBusy[op.key] = false
		if err == nil {
			l.ver[op.key] = op.ver
		}
	}
	if err != nil {
		l.errs++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
	if op.rec {
		l.tr.close(op.span)
		l.record(op, err)
	}
	if op.slot >= 0 {
		l.issue(op.slot)
	}
}

func (l *kvLoad) record(op *kvOp, err error) {
	now := l.eng.Now()
	if err != nil {
		l.v.failed++
	} else {
		d := now - op.due
		l.v.completed++
		deadline := writeDeadline
		if op.class == sched.LatencySensitive {
			deadline = readDeadline
		}
		if d <= deadline {
			l.v.inSLO++
		}
		switch op.kind {
		case serve.OpGet:
			l.v.gets++
			l.v.readLat = append(l.v.readLat, int64(d))
		case serve.OpPut:
			l.v.puts++
			l.v.userBytes += int64(len("user00000000") + kvValueSize)
			l.v.writeLat = append(l.v.writeLat, int64(d))
		}
	}
	l.v.end = now
	switch l.v.completed + l.v.failed {
	case int64(l.n-l.warm) / 2:
		l.v.mid = l.snap()
	case int64(l.n - l.warm):
		l.v.last = l.snap()
	}
}

// warmUp starts the clients (or the arrival process) and steps the
// engine until the last warm op has been issued.
func (l *kvLoad) warmUp() {
	if l.shape.ratePerS > 0 {
		l.nextDue = l.eng.Now()
		l.arrive()
	} else {
		for s := 0; s < l.shape.readers+l.shape.writers+l.shape.mixers; s++ {
			l.issue(s)
		}
	}
	for l.issued < l.warm && l.eng.Step() {
	}
}

// gcAged reports whether every device is at GC steady state: cumulative
// GC erases of at least half its block population, so the free pools
// cycle at the watermarks (the experiments' convention for an aged
// fabric).
func gcAged(devs []*ssd.Device) bool {
	for _, d := range devs {
		if d.FTL().Stats().GCErases < d.Array().TotalBlocks()/2 {
			return false
		}
	}
	return true
}

// buildKV assembles a fabric, preloads and churns it until every
// device collects garbage, warms it with the workload's own traffic and
// hands back the window.
func buildKV(shapeFor func(small bool) kvShape) builder {
	return func(seed uint64, sz sizing, tr *tracer) (*window, error) {
		shape := shapeFor(sz.small)
		eng := sim.NewEngine()
		var (
			fab  *serve.Fabric
			fe   *serve.Frontend
			pl   *place.Placement
			ferr error
		)
		sys := &system{eng: eng}
		rounds := 0
		eng.Go(func(p *sim.Proc) {
			if fab, ferr = serve.New(p, eng, shape.cfg); ferr != nil {
				return
			}
			fe = serve.NewFrontend(fab, shape.keys, kvValueSize)
			if shape.replicated {
				if pl, ferr = place.New(fab); ferr != nil {
					return
				}
				pl.Attach(fe)
			}
			for d := 0; d < fab.Devices(); d++ {
				sys.devs = append(sys.devs, fab.Stack(d).Device().(*ssd.Device))
				sys.stacks = append(sys.stacks, fab.Stack(d))
				if sc := fab.Scheduler(d); sc != nil {
					sys.scheds = append(sys.scheds, sc)
				}
			}
			if ferr = fe.Preload(p); ferr != nil {
				return
			}
			for ; rounds < shape.maxChurn && !gcAged(sys.devs); rounds++ {
				if ferr = fe.Churn(p, 1); ferr != nil {
					return
				}
			}
		})
		drain(eng)
		if ferr != nil {
			return nil, fmt.Errorf("fabric set-up: %w", ferr)
		}
		if !gcAged(sys.devs) {
			return nil, fmt.Errorf("fabric set-up: devices not collecting after %d churn rounds", rounds)
		}
		sys.fab, sys.pl = fab, pl

		tr.bind(eng)
		l := &kvLoad{
			eng: eng, fe: fe, tr: tr, shape: &shape, rng: sim.NewRNG(seed), snap: sys.snap,
			warm: shape.warmOps, n: shape.warmOps + sz.ops,
			v:       &virt{readLat: make([]int64, 0, sz.ops), writeLat: make([]int64, 0, sz.ops)},
			ver:     make([]uint32, shape.keys),
			putBusy: make([]bool, shape.keys),
			// Preload writes salt 0; churn round r writes salt r.
			setupSalt: byte(rounds),
		}
		l.zipf = sim.NewZipf(sim.NewRNG(seed+1), shape.keys, 0.99)
		l.warmUp()

		w := &window{eng: eng, snap: sys.snap}
		// carry is what the fabric's ledger held when the window opened:
		// ops admitted by then and served inside the window belong to
		// both sides of the reset.
		var carry counters
		w.arm = func() {
			carry = sys.snap()
			fab.ResetStats()
			for _, d := range sys.devs {
				d.Metrics().Reset()
			}
		}
		w.finish = func() (*virt, error) {
			if l.settled != l.n {
				return nil, fmt.Errorf("kv window: %d of %d ops settled", l.settled, l.n)
			}
			if l.errs != 0 {
				return nil, fmt.Errorf("kv window: %d ops failed in the engine (first: %v)", l.errs, l.firstErr)
			}
			if err := checkAdmission(carry, l.v.last); err != nil {
				return nil, err
			}
			n, err := l.readBack(seed)
			if err != nil {
				return nil, err
			}
			l.v.checks = append(l.v.checks,
				"admission conservation: submitted = admitted + rejected, admitted = served + failed + dropped",
				sprintf("read-back of %d sampled keys from every replica's Store.Get matches the last served put", n))
			return l.v, nil
		}
		w.close = func() {
			fab.Stop(false)
			drain(eng)
		}
		return w, nil
	}
}

// checkAdmission holds the fabric's ledger to its conservation laws.
// carry is the ledger up to the window's opening and last the ledger
// since, read when the final op settled and nothing was in flight, so
// both laws hold exactly on their sum.
func checkAdmission(carry, last counters) error {
	submitted, admitted, rejected := carry.submitted+last.submitted, carry.admitted+last.admitted, carry.rejected+last.rejected
	settled := carry.served + carry.failed + carry.dropped + last.served + last.failed + last.dropped
	if submitted != admitted+rejected {
		return fmt.Errorf("admission ledger: submitted %d != admitted %d + rejected %d", submitted, admitted, rejected)
	}
	if admitted != settled {
		return fmt.Errorf("admission ledger: admitted %d != served + failed + dropped %d", admitted, settled)
	}
	return nil
}

// readBack reads up to 1000 seeded keys straight from every replica's
// store after the window and compares each with the value the last
// served put (or set-up) left there.
func (l *kvLoad) readBack(seed uint64) (int, error) {
	rng := sim.NewRNG(seed ^ 0xbacc)
	n := 1000
	if int64(n) > l.shape.keys {
		n = int(l.shape.keys)
	}
	var rerr error
	l.eng.Go(func(p *sim.Proc) {
		for i := 0; i < n && rerr == nil; i++ {
			k := rng.Int63n(l.shape.keys)
			want := setupValue(k, l.setupSalt)
			if l.ver[k] > 0 {
				want = putValue(k, l.ver[k])
			}
			key := l.fe.Key(k)
			for r, sys := range l.fe.TargetFor(key).Systems() {
				got, err := sys.Store.Get(p, key)
				if err != nil || !bytes.Equal(got, want) {
					rerr = fmt.Errorf("read-back: key %d replica %d: got %x (err %v), want %x (version %d)", k, r, got, err, want, l.ver[k])
					break
				}
			}
		}
	})
	drain(l.eng)
	return n, rerr
}

// kvDevice is the flash device under both kv workloads: Enterprise2012
// at 2 channels × 4 chips, small enough that churn ages it inside
// set-up.
func kvDevice(small bool) ssd.Options {
	o := ssd.Options{Channels: 2, ChipsPerChannel: 4, BlocksPerPlane: 16, PagesPerBlock: 32}
	if small {
		o.ChipsPerChannel, o.BlocksPerPlane, o.PagesPerBlock = 2, 16, 16
	}
	return o
}

// kvAdmission is E23's admission policy, the fabric's own deadlines.
var kvAdmission = serve.AdmissionConfig{
	Enabled:            true,
	QueueLimit:         12,
	LatencyDeadline:    readDeadline,
	ThroughputDeadline: writeDeadline,
	Rate:               6000,
	Burst:              32,
}

// kvSat is E23's saturation mix on the per-request path: 4 shards over
// one device behind the multi-queue block layer and a scheduler, a
// 4-frame cache so every op does device I/O, 16 point readers beside 32
// writers.
func kvSat(small bool) kvShape {
	const shards = 4
	return kvShape{
		cfg: serve.Config{
			Shards:        shards,
			Mode:          blockdev.MultiQueue,
			DeviceOptions: kvDevice(small),
			Scheduled:     true,
			WriteCost:     16,
			QueueDepth:    4,
			LogPages:      12,
			Store:         kvstore.Config{CacheFrames: 4, CheckpointBytes: 4 << 10},
			Admission:     kvAdmission,
		},
		keys:    shards * 480,
		readers: 4 * shards, writers: 8 * shards,
		warmOps:  10_000,
		maxChurn: 400,
	}.shrunk(small)
}

// kvOpenRate is the open loop's fixed arrival rate. `bench -capacity`
// measured the kv_open fabric's closed-loop capacity once on this tree
// at 17.4 k ops/s (64 closed-loop clients drawing the same mix, seed
// 1), but it gets there with 31 % of submissions refused; as an open
// loop the fabric leaves its deadlines between 6 k and 8 k ops/s (read
// p99 0.70 ms at 6 k, 4.1 ms at 8 k against a 2 ms deadline) and from
// 5 k ops/s up its read latency differs by 20-40 % from one seed to the
// next. The fixed rate is therefore 4000 ops/s — 23 % of closed-loop
// capacity, about half the knee — where latency, not throughput, is the
// result and the result repeats. Re-measuring it is a change to the
// benchmark.
const kvOpenRate = 4000

// kvOpenClosed is the kv_open fabric under a closed loop of 64 clients
// drawing the same mix: what -capacity measures kvOpenRate from.
func kvOpenClosed(small bool) kvShape {
	s := kvOpen(small)
	s.ratePerS, s.mixers = 0, 64
	return s
}

// kvOpen is the peer path the paper proposes: 4 logical shards × 2
// replicas over 2 devices behind place, direct submission, 1000 keys
// (about 25 tree pages) per shard behind an 8-frame cache that holds
// the Zipf hot set — half of all page lookups hit — and 4 workers per
// shard so that a get rarely waits behind two committing puts. With the
// whole tree cached and 2 workers, 96 % of gets cost the 2 us serve
// constant and the rest wait out a commit, so read mean and p99 sat on
// the edge between the two and moved 50-70 % from seed to seed.
func kvOpen(small bool) kvShape {
	const shards = 4
	return kvShape{
		cfg: serve.Config{
			Shards:          shards,
			Devices:         2,
			Replicas:        2,
			Mode:            blockdev.Direct,
			DeviceOptions:   kvDevice(small),
			Scheduled:       true,
			WriteCost:       16,
			QueueDepth:      4,
			LogPages:        12,
			WorkersPerShard: 4,
			Store:           kvstore.Config{CacheFrames: 8, CheckpointBytes: 16 << 10},
			Admission:       kvAdmission,
		},
		keys:       shards * 1000,
		replicated: true,
		ratePerS:   kvOpenRate,
		getShare:   0.80, putShare: 0.15,
		warmOps:  6_000,
		maxChurn: 400,
	}.shrunk(small)
}

// shrunk cuts the key space and warm-up for the smoke tests.
func (s kvShape) shrunk(small bool) kvShape {
	if small {
		s.keys /= 4
		s.warmOps /= 10
	}
	return s
}
