package serve

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Target is one routable serving destination: a physical Shard in the
// default single-placement fabric, or a replica group (package place)
// that fans a request out behind the same submit surface.
type Target interface {
	// Submit routes one request through the target's admission path;
	// done fires exactly once.
	Submit(op Op, done func(error))
	// Systems lists the KV systems that must hold every key routed to
	// this target — one per replica. Preload and churn write all of
	// them, so replicas start identical.
	Systems() []*kvstore.System
}

// Router supplies the frontend's routing table: key k is served by
// Targets()[FNV32a(k) mod len]. The table's order must be stable for
// the life of the router — that is what keeps a key's assignment
// stable across crashes and reopens.
type Router interface {
	Targets() []Target
}

// Frontend is the client-facing edge of the fabric: it hash-routes keys
// to targets (physical shards by default, replica groups when a router
// from package place is attached) and drives client populations from
// workload.TenantSpec mixes. Keys are "userNNNNNNNN" over [0, Keys).
type Frontend struct {
	fab    *Fabric
	router Router // nil = the fabric's own shard table
	// Keys is the frontend's key-space size.
	Keys int64
	// ValueSize is the payload per written key.
	ValueSize int
	// ScanLimit bounds scan requests issued for sequential-read tenants.
	ScanLimit int
	// RejectBackoff is how long a closed-loop client sleeps after an
	// admission reject before its next request (retry storms otherwise
	// collapse virtual time to a busy loop).
	RejectBackoff sim.Time

	churned int    // completed churn rounds, the running value salt
	keys    []byte // Key's table: key i at [i*keyLen, (i+1)*keyLen)
}

// keyLen is the length of every key below 10^8 ("user" and eight
// digits), so the key table can index them at a fixed stride.
const keyLen = 12

// NewFrontend builds a frontend over fab with the given key space.
func NewFrontend(fab *Fabric, keys int64, valueSize int) *Frontend {
	if keys < 1 {
		keys = 1
	}
	if valueSize <= 0 {
		valueSize = 64
	}
	f := &Frontend{
		fab:           fab,
		Keys:          keys,
		ValueSize:     valueSize,
		ScanLimit:     32,
		RejectBackoff: 100 * sim.Microsecond,
	}
	n := min(keys, 100_000_000)
	f.keys = make([]byte, 0, n*keyLen)
	for i := int64(0); i < n; i++ {
		f.keys = appendKey(f.keys, i)
	}
	return f
}

// Key renders key index i as "user%08d" would. An index in [0, Keys)
// below 10^8 costs nothing: its key is a slice of the table NewFrontend
// built, capped at its length so an append copies instead of overwriting
// the next key, and nobody may write into it. Any other index, and every
// index of a zero Frontend, is formatted in one allocation.
func (f *Frontend) Key(i int64) []byte {
	if i >= 0 && i < int64(len(f.keys)/keyLen) {
		return f.keys[i*keyLen : (i+1)*keyLen : (i+1)*keyLen]
	}
	return appendKey(make([]byte, 0, len("user")+20), i) // 20: the longest int64
}

// appendKey appends key index i as "user%08d" would.
func appendKey(dst []byte, i int64) []byte {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], i, 10)
	sign := 0
	if i < 0 {
		sign = 1
	}
	pad := max(0, 8-len(digits)) // the sign counts toward the width
	dst = append(dst, "user"...)
	dst = append(dst, digits[:sign]...)
	for ; pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return append(dst, digits[sign:]...)
}

// SetRouter replaces the frontend's routing table (package place
// attaches its replica groups here). A nil router restores the default
// fabric shard table.
func (f *Frontend) SetRouter(r Router) { f.router = r }

// targets returns the live routing table.
func (f *Frontend) targets() []Target {
	if f.router != nil {
		return f.router.Targets()
	}
	return f.fab.Targets()
}

// routeIndex hashes a key into an n-entry routing table (FNV-1a over
// the key bytes).
func routeIndex(key []byte, n int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(n))
}

// TargetFor routes a key to its serving target.
func (f *Frontend) TargetFor(key []byte) Target {
	ts := f.targets()
	return ts[routeIndex(key, len(ts))]
}

// Submit routes op to its key's target through admission control.
// With tracing on, this is where the request's span opens — and the
// span closes exactly when done fires, so span totals and client
// latencies measure the same interval.
func (f *Frontend) Submit(op Op, done func(error)) {
	if tr := f.fab.tracer; tr != nil && op.Span == nil {
		sp := tr.Open(op.Class.String(), op.Kind.String(), f.fab.eng.Now())
		op.Span = sp
		inner := done
		done = func(err error) {
			sp.Close(f.fab.eng.Now(), err)
			if inner != nil {
				inner(err)
			}
		}
	}
	f.TargetFor(op.Key).Submit(op, done)
}

// do submits op and blocks the calling process until it settles.
func (f *Frontend) do(p *sim.Proc, op Op) error {
	c := sim.NewCond(p.Engine())
	var oerr error
	f.Submit(op, func(err error) {
		oerr = err
		c.Fire()
	})
	c.Await(p)
	return oerr
}

// Get point-reads key index i through admission (a missing key is not
// an error).
func (f *Frontend) Get(p *sim.Proc, i int64) error {
	return f.do(p, Op{Kind: OpGet, Key: f.Key(i), Class: sched.LatencySensitive})
}

// Put upserts key index i through admission.
func (f *Frontend) Put(p *sim.Proc, i int64, value []byte) error {
	return f.do(p, Op{Kind: OpPut, Key: f.Key(i), Value: value, Class: sched.Throughput})
}

// valueFor builds key i's deterministic payload (salt varies content
// between churn rounds so rewrites are real page updates).
func (f *Frontend) valueFor(i int64, salt byte) []byte {
	v := make([]byte, f.ValueSize)
	for j := range v {
		v[j] = byte(int64(j)+i) ^ salt
	}
	return v
}

// writeAll writes every key once, straight into every backing store of
// its target (bypassing admission — and writing every replica, so
// replicated placements start identical), then checkpoints each store
// so the trees land on flash.
func (f *Frontend) writeAll(p *sim.Proc, salt byte) error {
	const batch = 8
	ts := f.targets()
	txns := make([][]*kvstore.Txn, len(ts))
	counts := make([]int, len(ts))
	for ti, t := range ts {
		txns[ti] = make([]*kvstore.Txn, len(t.Systems()))
	}
	for i := int64(0); i < f.Keys; i++ {
		key := f.Key(i)
		ti := routeIndex(key, len(ts))
		for si, sys := range ts[ti].Systems() {
			if txns[ti][si] == nil {
				txns[ti][si] = sys.Store.Begin()
			}
			txns[ti][si].Put(key, f.valueFor(i, salt))
		}
		if counts[ti]++; counts[ti]%batch == 0 {
			for si, tx := range txns[ti] {
				if tx != nil {
					if err := tx.Commit(p); err != nil {
						return fmt.Errorf("serve: preload target %d: %w", ti, err)
					}
					txns[ti][si] = nil
				}
			}
		}
	}
	for ti := range txns {
		for _, tx := range txns[ti] {
			if tx != nil {
				if err := tx.Commit(p); err != nil {
					return fmt.Errorf("serve: preload target %d: %w", ti, err)
				}
			}
		}
	}
	for ti, t := range ts {
		for _, sys := range t.Systems() {
			if err := sys.Store.Checkpoint(p); err != nil {
				return fmt.Errorf("serve: preload checkpoint target %d: %w", ti, err)
			}
		}
	}
	return nil
}

// Preload writes every key once, straight into the shard stores
// (bypassing admission), and checkpoints each shard so a measurement
// window starts from a warm tree on flash instead of an empty memtable
// that would serve reads without any device I/O. Call before Drive,
// from a simulated process, with no concurrent clients.
func (f *Frontend) Preload(p *sim.Proc) error { return f.writeAll(p, 0) }

// Churn rewrites every key rounds more times (fresh values each round,
// checkpoint after each pass). Every rewrite invalidates flash pages,
// so churn drags the devices' free pools down toward the GC watermarks
// — a measurement window that follows starts with garbage collection
// live, the steady state of a served device, instead of on
// factory-fresh flash that would never collect inside the window. The
// salt keeps rotating across separate Churn calls, so callers that
// churn one round at a time (checking device state between rounds)
// still write fresh values every pass.
func (f *Frontend) Churn(p *sim.Proc, rounds int) error {
	for r := 0; r < rounds; r++ {
		f.churned++
		if err := f.writeAll(p, byte(f.churned)); err != nil {
			return err
		}
	}
	return nil
}

// opFor maps one generated access to a serving request. Sequential
// reads from throughput tenants become bounded scans (the analytics
// stream of ScanHeavyMix); everything else maps read→get, write→put.
func (f *Frontend) opFor(spec *workload.TenantSpec, a workload.Access) Op {
	class := sched.Throughput
	if spec.LatencySensitive {
		class = sched.LatencySensitive
	}
	if a.Kind == workload.Write {
		return Op{Kind: OpPut, Key: f.Key(a.LPN), Value: f.valueFor(a.LPN, 0), Class: class}
	}
	if spec.Pattern == workload.SR && !spec.LatencySensitive {
		return Op{Kind: OpScan, Key: f.Key(a.LPN), ScanLimit: f.ScanLimit, Class: class}
	}
	return Op{Kind: OpGet, Key: f.Key(a.LPN), Class: class}
}

// Drive spawns client processes for the tenant mix over the fabric and
// returns immediately; clients stop issuing at horizon. Served-request
// latencies are recorded per tenant into lat (rejected and dropped
// requests appear only in ShardStats — they never occupied the
// system). Open-loop tenants (ThinkTime > 0) issue on the clock
// regardless of completions; closed-loop tenants run Depth concurrent
// request loops and back off RejectBackoff after a reject.
func (f *Frontend) Drive(specs []workload.TenantSpec, horizon sim.Time, lat *metrics.TenantLatencies) error {
	eng := f.fab.eng
	for i := range specs {
		spec := specs[i]
		gen, err := workload.NewTenantGenerator(spec, f.Keys)
		if err != nil {
			return err
		}
		if spec.ThinkTime > 0 {
			eng.Go(func(p *sim.Proc) {
				for p.Now() < horizon {
					op := f.opFor(&spec, gen.Next())
					t0 := p.Now()
					f.Submit(op, func(err error) {
						if err == nil {
							lat.Record(spec.Name, int64(eng.Now()-t0))
						}
					})
					p.Sleep(spec.ThinkTime)
				}
			})
			continue
		}
		for d := 0; d < spec.Depth; d++ {
			eng.Go(func(p *sim.Proc) {
				for p.Now() < horizon {
					op := f.opFor(&spec, gen.Next())
					t0 := p.Now()
					err := f.do(p, op)
					switch err {
					case nil:
						lat.Record(spec.Name, int64(p.Now()-t0))
					case ErrRejected, ErrCrashed:
						// Crashed requests are lost, not fatal: the fabric
						// reopens and the client population must survive it.
						p.Sleep(f.RejectBackoff)
					case ErrStopped:
						return
					default:
						// Engine error: recorded in Fabric.Errors; keep
						// driving so one failure does not idle the client.
						p.Sleep(f.RejectBackoff)
					}
				}
			})
		}
	}
	return nil
}
