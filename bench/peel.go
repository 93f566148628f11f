package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/blockdev"
	"repro/internal/kvstore"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// The layer peel drives one op stream at each layer's entry point in
// turn, bottom up, so each rung shows what its layer adds on top of the
// rung below. The page rungs replay the dev_mixed stream (at the
// device, at blockdev.Stack.Submit in all three modes, and with a
// scheduler attached); the key rungs replay the kv_sat op mix (at
// kvstore, at serve.Frontend.Submit, and behind a place router).
//
// Where the rung's constructor takes the device (blockdev.New, and
// through it kvstore.BuildShardConservative), the device is a
// tracedDev, so the device commands are true child spans and the
// layer's self time is span minus child. serve.New builds its own
// devices and type-asserts *ssd.Device on them (GC notifier, fault
// injection), so there is no seam to put a wrapper in: the serve and
// place rungs are scored as the paired difference, op by op, against
// the rung below.

// peelOps is how many recorded ops each rung replays.
const peelOps = 20_000

// rung is one rung's outcome.
type rung struct {
	name string
	// lat is each recorded op's virtual latency, in issue order.
	lat []int64
	// first, last bound the rung's spans in the tracer: [first, last).
	first, last int
	// print is the rung's virtual-clock fingerprint: a traced rung must
	// match its untraced twin.
	print string
}

// stackTarget adapts a block-layer stack to the page-op generator.
type stackTarget struct {
	stack  *blockdev.Stack
	dev    ssd.Dev
	cpu    int
	rd, wr *sched.Tenant
}

func (t *stackTarget) PageSize() int   { return t.dev.PageSize() }
func (t *stackTarget) Capacity() int64 { return t.dev.Capacity() }

func (t *stackTarget) Read(lpn int64, done func([]byte, error)) {
	t.cpu++
	t.stack.Submit(t.cpu, blockdev.Request{Op: blockdev.OpRead, LPN: lpn, Tenant: t.rd, Done: done})
}

func (t *stackTarget) Write(lpn int64, data []byte, done func(error)) {
	t.cpu++
	t.stack.Submit(t.cpu, blockdev.Request{Op: blockdev.OpWrite, LPN: lpn, Data: data, Tenant: t.wr,
		Done: func(_ []byte, err error) { done(err) }})
}

// pageRung replays the dev_mixed stream through the entry point mk
// builds over the (optionally traced) device.
func pageRung(name string, tr *tracer, seed uint64, small bool, mk func(*sim.Engine, ssd.Dev) (pageTarget, error)) (*rung, error) {
	eng := sim.NewEngine()
	d, err := ssd.Build(eng, ssd.Enterprise2012, devOptions(seed, small))
	if err != nil {
		return nil, err
	}
	raw := d.(*ssd.Device)
	if err := fillDevice(eng, raw, seed); err != nil {
		return nil, err
	}
	inFlight := map[int64]int64{}
	var dev ssd.Dev = raw
	if tr != nil {
		tr.bind(eng)
		dev = &tracedDev{Device: raw, tr: tr, parentOf: func(lpn int64) (int64, bool) {
			id := inFlight[lpn]
			return id, id != 0
		}}
	}
	target, err := mk(eng, dev)
	if err != nil {
		return nil, err
	}
	ops := peelOps
	if small {
		ops = peelOps / 20
	}
	l := newDevLoad(eng, target, tr, seed, 0.70, true, int(raw.Capacity()), ops)
	l.inFlight, l.readSpan, l.writeSpan = inFlight, "peel."+name+".read", "peel."+name+".write"
	r := &rung{name: name, first: tr.len()}
	l.warmUp()
	drain(eng)
	r.last = tr.len()
	if l.errs != 0 || l.settled != l.n {
		return nil, fmt.Errorf("peel %s: %d errors, %d of %d settled", name, l.errs, l.settled, l.n)
	}
	r.lat = append(append(r.lat, l.v.readLat...), l.v.writeLat...)
	r.print = fmt.Sprintf("end=%d sum=%d n=%d", l.v.end, sum(r.lat), len(r.lat))
	return r, nil
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// stackRung builds the entry point of a block-layer rung.
func stackRung(mode blockdev.Mode, scheduled bool) func(*sim.Engine, ssd.Dev) (pageTarget, error) {
	return func(eng *sim.Engine, dev ssd.Dev) (pageTarget, error) {
		cfg := blockdev.DefaultConfig(mode)
		if scheduled {
			// The kv workloads' stack settings: a device queue shallower
			// than the client count, so the scheduler has something to
			// arbitrate. The plain rungs keep the default depth of 32, above
			// the client count, and show the mode's own cost unqueued.
			cfg.QueueDepth, cfg.WriteCost = 4, 16
		}
		st, err := blockdev.New(eng, dev, cfg)
		if err != nil {
			return nil, err
		}
		t := &stackTarget{stack: st, dev: dev}
		if scheduled {
			sc := sched.New(eng, sched.DefaultConfig())
			st.AttachScheduler(sc)
			t.rd = sc.AddTenant("reads", sched.LatencySensitive, 2)
			t.wr = sc.AddTenant("writes", sched.Throughput, 1)
		}
		return t, nil
	}
}

// keyOps is the kv_sat op mix as a fixed sequence: a third point gets,
// two thirds puts (16 readers beside 32 writers), uniform keys.
func keyOps(seed uint64, n int, keys int64) (put []bool, key []int64) {
	rng := sim.NewRNG(seed)
	put, key = make([]bool, n), make([]int64, n)
	for i := range put {
		put[i] = rng.Intn(3) != 0
		key[i] = rng.Int63n(keys)
	}
	return put, key
}

func keyBytes(i int64) []byte { return []byte(fmt.Sprintf("user%08d", i)) }

// shardStack is the lower half of a kv_sat fabric device exactly as
// serve.New assembles it — block-layer stack, scheduler with the
// device's GC notifications wired in, one store per shard in its own
// region with its own tenant and submission core — but over a device
// the caller supplies.
func shardStack(p *sim.Proc, eng *sim.Engine, dev ssd.Dev, raw *ssd.Device, cfg serve.Config) ([]*kvstore.Store, error) {
	workers := 2 // serve's default WorkersPerShard
	scfg := blockdev.DefaultConfig(cfg.Mode)
	scfg.CPUs = (cfg.Shards+1)*workers + 2
	scfg.QueueDepth = cfg.QueueDepth
	scfg.WriteCost = cfg.WriteCost
	stack, err := blockdev.New(eng, dev, scfg)
	if err != nil {
		return nil, err
	}
	sc := sched.New(eng, sched.DefaultConfig())
	stack.AttachScheduler(sc)
	if err := raw.SetGCNotifier(sc.SetGCActiveChips); err != nil {
		return nil, err
	}
	span := dev.Capacity() / int64(cfg.Shards)
	stores := make([]*kvstore.Store, cfg.Shards)
	for i := range stores {
		sys, err := kvstore.BuildShardConservative(p, eng, stack, kvstore.ShardRegion{
			Base: int64(i) * span, Span: span, LogPages: cfg.LogPages,
			Tenant:     sc.AddTenant(fmt.Sprintf("shard%d", i), sched.LatencySensitive, 1),
			SubmitCore: i * workers,
		}, cfg.Store)
		if err != nil {
			return nil, err
		}
		stores[i] = sys.Store
	}
	return stores, nil
}

// shardOf is serve.Frontend's routing: FNV-1a of the key, modulo the
// shard count.
func shardOf(key []byte, n int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(n))
}

// kvstoreRung replays the key ops, one at a time, straight at the
// stores of a kv_sat device assembled by shardStack over the
// (optionally traced) device: Store.Get and Txn.Commit with no serving
// layer above. With one request in flight, every device command inside
// it is its child. (kvstore.BuildConservative would put one store on a
// single-queue stack of its own; the rung above could then not be
// compared with this one op by op.)
func kvstoreRung(tr *tracer, seed uint64, small bool) (*rung, error) {
	shape := kvSat(small)
	n := peelOps
	if small {
		n = peelOps / 20
	}
	put, key := keyOps(seed, n, shape.keys)
	eng := sim.NewEngine()
	opts := shape.cfg.DeviceOptions
	opts.Seed = 1 // serve.New seeds device d with d+1
	d, err := ssd.Build(eng, ssd.Enterprise2012, opts)
	if err != nil {
		return nil, err
	}
	raw := d.(*ssd.Device)
	var cur int64
	var dev ssd.Dev = raw
	if tr != nil {
		tr.bind(eng)
		dev = &tracedDev{Device: raw, tr: tr, parentOf: func(int64) (int64, bool) { return cur, cur != 0 }}
	}
	r := &rung{name: "kvstore", lat: make([]int64, 0, n)}
	var rerr error
	eng.Go(func(p *sim.Proc) {
		stores, err := shardStack(p, eng, dev, raw, shape.cfg)
		if err != nil {
			rerr = err
			return
		}
		// Preload the way serve.Frontend does: per-shard transactions of
		// eight keys, then a checkpoint of every store.
		txns := make([]*kvstore.Txn, len(stores))
		counts := make([]int, len(stores))
		for k := int64(0); k < shape.keys; k++ {
			kb := keyBytes(k)
			si := shardOf(kb, len(stores))
			if txns[si] == nil {
				txns[si] = stores[si].Begin()
			}
			txns[si].Put(kb, setupValue(k, 0))
			if counts[si]++; counts[si]%8 == 0 {
				if rerr = txns[si].Commit(p); rerr != nil {
					return
				}
				txns[si] = nil
			}
		}
		for si, tx := range txns {
			if tx != nil {
				if rerr = tx.Commit(p); rerr != nil {
					return
				}
			}
			if rerr = stores[si].Checkpoint(p); rerr != nil {
				return
			}
		}
		r.first = tr.len()
		for i := range put {
			kb := keyBytes(key[i])
			st := stores[shardOf(kb, len(stores))]
			t0 := p.Now()
			if put[i] {
				cur = tr.open("peel.kvstore.put", 0)
				tx := st.Begin()
				tx.Put(kb, putValue(key[i], uint32(i+1)))
				rerr = tx.Commit(p)
			} else {
				cur = tr.open("peel.kvstore.get", 0)
				_, rerr = st.Get(p, kb)
			}
			tr.close(cur)
			cur = 0
			if rerr != nil {
				return
			}
			r.lat = append(r.lat, int64(p.Now()-t0))
		}
		r.last = tr.len()
	})
	drain(eng)
	if rerr != nil {
		return nil, fmt.Errorf("peel kvstore: %w", rerr)
	}
	r.print = fmt.Sprintf("sum=%d n=%d", sum(r.lat), len(r.lat))
	return r, nil
}

// fabricRung replays the key ops, one at a time, through
// serve.Frontend.Submit over the kv_sat fabric — replicated behind a
// place router when replicas > 1.
func fabricRung(name string, tr *tracer, seed uint64, small bool, replicas int) (*rung, error) {
	shape := kvSat(small)
	if replicas > 1 {
		shape.cfg.Devices, shape.cfg.Replicas = replicas, replicas
	}
	n := peelOps
	if small {
		n = peelOps / 20
	}
	put, key := keyOps(seed, n, shape.keys)
	eng := sim.NewEngine()
	tr.bind(eng)
	var fab *serve.Fabric
	var fe *serve.Frontend
	var rerr error
	eng.Go(func(p *sim.Proc) {
		if fab, rerr = serve.New(p, eng, shape.cfg); rerr != nil {
			return
		}
		fe = serve.NewFrontend(fab, shape.keys, kvValueSize)
		if replicas > 1 {
			pl, err := place.New(fab)
			if err != nil {
				rerr = err
				return
			}
			pl.Attach(fe)
		}
		rerr = fe.Preload(p)
	})
	drain(eng)
	if rerr != nil {
		return nil, fmt.Errorf("peel %s: %w", name, rerr)
	}
	r := &rung{name: name, lat: make([]int64, 0, n), first: tr.len()}
	var next func(i int)
	next = func(i int) {
		if i == n {
			return
		}
		op := serve.Op{Kind: serve.OpGet, Key: keyBytes(key[i]), Class: sched.LatencySensitive}
		if put[i] {
			op = serve.Op{Kind: serve.OpPut, Key: keyBytes(key[i]), Value: putValue(key[i], uint32(i+1)), Class: sched.Throughput}
		}
		t0 := eng.Now()
		sp := tr.open("peel."+name+"."+op.Kind.String(), 0)
		var submit func()
		submit = func() {
			fe.Submit(op, func(err error) {
				if errors.Is(err, serve.ErrRejected) {
					eng.After(rejectBackoff, submit)
					return
				}
				tr.close(sp)
				if err != nil && rerr == nil {
					rerr = err
				}
				r.lat = append(r.lat, int64(eng.Now()-t0))
				next(i + 1)
			})
		}
		submit()
	}
	next(0)
	drain(eng)
	r.last = tr.len()
	fab.Stop(false)
	drain(eng)
	if rerr != nil || len(r.lat) != n {
		return nil, fmt.Errorf("peel %s: %v, %d of %d ops settled", name, rerr, len(r.lat), n)
	}
	r.print = fmt.Sprintf("sum=%d n=%d", sum(r.lat), len(r.lat))
	return r, nil
}

// selfTimes computes, for every root span of a rung, its virtual
// duration minus the part its child spans cover.
func selfTimes(spans []span, r *rung, keep func(name string) bool) []int64 {
	children := map[int64][]interval{}
	for _, s := range spans[r.first:r.last] {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.VStart, s.VEnd})
		}
	}
	var self []int64
	for _, s := range spans[r.first:r.last] {
		if s.Parent == 0 && keep(s.Name) {
			self = append(self, selfTime(interval{s.VStart, s.VEnd}, children[s.ID]))
		}
	}
	return self
}

func p50us(xs []int64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantileUs(s, 0.5)
}

// pairedDiff is the op-by-op latency difference of two rungs that
// replayed the same sequence.
func pairedDiff(upper, lower *rung) []int64 {
	d := make([]int64, len(upper.lat))
	for i := range d {
		d[i] = upper.lat[i] - lower.lat[i]
	}
	return d
}

// peel runs every rung, traced and (where a wrapper is in play)
// untraced, checks that wrapping moved nothing on the virtual clock,
// and returns the self-time metrics plus the lines of the peel table.
func peel(tr *tracer, seed uint64, small bool) ([]metric, []string, error) {
	type pageSpec struct {
		name string
		mk   func(*sim.Engine, ssd.Dev) (pageTarget, error)
	}
	pages := []pageSpec{
		{"ssd", func(_ *sim.Engine, d ssd.Dev) (pageTarget, error) { return d, nil }},
		{"blockdev.sq", stackRung(blockdev.SingleQueue, false)},
		{"blockdev.mq", stackRung(blockdev.MultiQueue, false)},
		{"blockdev.direct", stackRung(blockdev.Direct, false)},
		{"sched", stackRung(blockdev.MultiQueue, true)},
	}
	any := func(string) bool { return true }
	selfP50 := map[string]float64{}
	var table []string
	row := func(r *rung, self []int64) {
		line := fmt.Sprintf("%-16s ops=%-6d span p50=%10.3f us", r.name, len(r.lat), p50us(r.lat))
		if self != nil {
			line += fmt.Sprintf("  self p50=%9.3f us", p50us(self))
		}
		table = append(table, line)
	}
	for _, ps := range pages {
		plain, err := pageRung(ps.name, nil, seed, small, ps.mk)
		if err != nil {
			return nil, nil, err
		}
		traced, err := pageRung(ps.name, tr, seed, small, ps.mk)
		if err != nil {
			return nil, nil, err
		}
		if plain.print != traced.print {
			return nil, nil, fmt.Errorf("peel %s: wrapping the device moved the virtual clock: plain %s, traced %s", ps.name, plain.print, traced.print)
		}
		self := selfTimes(tr.spans, traced, any)
		selfP50[ps.name] = p50us(self)
		row(traced, self)
	}

	kvPlain, err := kvstoreRung(nil, seed, small)
	if err != nil {
		return nil, nil, err
	}
	kv, err := kvstoreRung(tr, seed, small)
	if err != nil {
		return nil, nil, err
	}
	if kvPlain.print != kv.print {
		return nil, nil, fmt.Errorf("peel kvstore: wrapping the device moved the virtual clock: plain %s, traced %s", kvPlain.print, kv.print)
	}
	getSelf := selfTimes(tr.spans, kv, func(n string) bool { return n == "peel.kvstore.get" })
	putSelf := selfTimes(tr.spans, kv, func(n string) bool { return n == "peel.kvstore.put" })
	row(kv, selfTimes(tr.spans, kv, any))

	sv, err := fabricRung("serve", tr, seed, small, 1)
	if err != nil {
		return nil, nil, err
	}
	serveSelf := pairedDiff(sv, kv)
	row(sv, serveSelf)
	pl, err := fabricRung("place", tr, seed, small, 2)
	if err != nil {
		return nil, nil, err
	}
	placeSelf := pairedDiff(pl, sv)
	row(pl, placeSelf)

	ms := []metric{
		newMetric("blockdev.self_us_p50.sq", selfP50["blockdev.sq"], "span minus device child"),
		newMetric("blockdev.self_us_p50.mq", selfP50["blockdev.mq"], ""),
		newMetric("blockdev.self_us_p50.direct", selfP50["blockdev.direct"], ""),
		newMetric("sched.self_us_p50", selfP50["sched"], "MultiQueue at queue depth 4 with the scheduler attached: span minus device child"),
		newMetric("kvstore.self_us_p50.get", p50us(getSelf), "span minus device children, one request in flight"),
		newMetric("kvstore.self_us_p50.put", p50us(putSelf), ""),
		newMetric("serve.self_us_p50", p50us(serveSelf), "paired difference against the kvstore rung"),
		newMetric("place.self_us_p50", p50us(placeSelf), "paired difference against the serve rung"),
	}
	return ms, table, nil
}
