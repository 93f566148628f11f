package kvstore

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/sim"
)

// slowLeaves wraps a store's page store. A leaf read issued by one of
// the procs in slow takes its bytes from the device when it is issued,
// as a chip read does, and hands them back only when release fires: a
// get held in its device read for as long as the test likes.
type slowLeaves struct {
	core.PageStore
	slow    map[*sim.Proc]bool
	held    int
	release *sim.Cond
}

func (g *slowLeaves) ReadPage(p *sim.Proc, lpn int64) ([]byte, error) {
	data, err := g.PageStore.ReadPage(p, lpn)
	if err != nil || !g.slow[p] || len(data) == 0 || data[0] != 1 { // 1: a leaf (see btree)
		return data, err
	}
	g.held++
	g.release.Await(p)
	g.held--
	return data, err
}

// slowDown puts st's page reads behind g, with a 2-frame cache.
func slowDown(tb testing.TB, st *Store, g *slowLeaves) {
	tb.Helper()
	g.PageStore = st.pages
	cache, err := bufpool.New(g, 2)
	if err != nil {
		tb.Fatal(err)
	}
	st.pages, st.cache = g, cache
}

// TestRecycledImageNeverReachesAReader: a page's image is recycled into
// a later checkpoint's pages only once no read that could reach the page
// is in flight. A seeded script on a 2-frame store, crashed and reopened
// half way, checks every value it reads against a model:
//   - gets held in their leaf's device read while one checkpoint frees
//     that leaf and the next writes more pages than the first freed;
//   - a ScanFrom paused part way, and a Snapshot, each held across
//     several checkpoints;
//   - gets whose values go into a Txn.Put while checkpoints run between
//     them (place's catch-up copy), read back after the commit.
//
// Draining freed images into the spares at the checkpoint, without
// waiting for the gets in flight, fails it: a held get then searches
// another page's bytes.
func TestRecycledImageNeverReachesAReader(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { recycleScript(t, seed) })
	}
}

func recycleScript(t *testing.T, seed uint64) {
	const n = 600
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		sys, err := BuildConservative(p, eng, buildFlash(t, eng), 64, 2, Config{CheckpointBytes: 1 << 30})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		st := sys.Store
		g := &slowLeaves{slow: map[*sim.Proc]bool{}, release: sim.NewCond(eng)}
		slowDown(t, st, g)
		rng := sim.NewRNG(seed)
		hist := make([][]string, n) // every value key i held, in order
		model := map[string]string{}
		round := 0

		// spread lists the keys in [lo, hi) in steps of step, except those
		// within span of a key in avoid.
		spread := func(lo, hi, step, span int, avoid ...int) []int {
			var keys []int
		next:
			for i := lo; i < hi; i += step {
				for _, k := range avoid {
					if i >= k-span && i <= k+span {
						continue next
					}
				}
				keys = append(keys, i)
			}
			return keys
		}
		// put commits new values for keys, then checkpoints.
		put := func(q *sim.Proc, keys []int) {
			round++
			tx := st.Begin()
			for _, i := range keys {
				v := fmt.Sprintf("r%d-%06d-%s", round, i, bytes.Repeat([]byte{byte('a' + round%26)}, 20+rng.Intn(40)))
				tx.Put(scanKey(i), []byte(v))
				hist[i] = append(hist[i], v)
				model[string(scanKey(i))] = v
			}
			if err := tx.Commit(q); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if err := st.Checkpoint(q); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		put(p, spread(0, n, 1, 0))
		forget := func() {
			for id := int64(0); id < st.nextPage; id++ {
				st.cache.Invalidate(id)
			}
		}
		verify := func(when string) {
			keys := make([]string, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				want := model[k]
				got, err := st.Get(p, []byte(k))
				if err != nil || string(got) != want {
					t.Fatalf("%s: Get(%s) = %q, %v; want %q", when, k, got, err, want)
				}
			}
			rows := 0
			if err := st.ScanFrom(p, nil, func(k, v []byte) bool {
				if want, ok := model[string(k)]; !ok || want != string(v) {
					t.Fatalf("%s: scan row %s = %q, want %q", when, k, v, want)
				}
				rows++
				return true
			}); err != nil || rows != len(model) {
				t.Fatalf("%s: full scan %d rows, %v; want %d", when, rows, err, len(model))
			}
		}

		// heldGets holds three gets in their leaf reads across a checkpoint
		// freeing their leaves (their neighbours change) and one rewriting
		// every other leaf, which needs more pages than the first freed.
		heldGets := func() {
			keys := []int{1 + rng.Intn(n/3-2), n/3 + 1 + rng.Intn(n/3-2), 2*n/3 + 1 + rng.Intn(n/3-2)}
			forget()
			wg := sim.NewWaitGroup(eng)
			wg.Add(len(keys))
			g.release.Reset()
			for _, k := range keys {
				want := model[string(scanKey(k))]
				eng.Go(func(q *sim.Proc) {
					g.slow[q] = true
					got, err := st.Get(q, scanKey(k))
					if err != nil || string(got) != want {
						t.Errorf("held Get(%s) = %q, %v; want %q", scanKey(k), got, err, want)
					}
					delete(g.slow, q)
					wg.Done()
				})
			}
			for i := 0; g.held < len(keys); i++ {
				if i == 1000 {
					t.Fatalf("%d of %d gets reached their leaf read", g.held, len(keys))
				}
				p.Sleep(sim.Microsecond)
			}
			put(p, []int{keys[0] - 1, keys[0] + 1, keys[1] - 1, keys[1] + 1, keys[2] - 1, keys[2] + 1})
			if st.descents != len(keys) || len(st.limbo) == 0 {
				t.Fatalf("%d descents in flight, %d images in limbo; want %d and the freed leaves'", st.descents, len(st.limbo), len(keys))
			}
			put(p, spread(0, n, 1+rng.Intn(3), 60, keys...))
			g.release.Fire()
			wg.Wait(p)
			if st.descents != 0 || len(st.limbo) != 0 {
				t.Fatalf("%d descents in flight, %d images in limbo after the gets returned", st.descents, len(st.limbo))
			}
		}

		// pausedScan streams from a random key, pausing part way while
		// three checkpoints rewrite the keys past it. Each row must be a
		// value its key held at some instant of the scan.
		pausedScan := func() {
			start := rng.Intn(n / 2)
			from := make([]int, n)
			for i := range hist {
				from[i] = len(hist[i]) - 1
			}
			paused, resume, done := sim.NewCond(eng), sim.NewCond(eng), sim.NewCond(eng)
			rows := 0
			eng.Go(func(q *sim.Proc) {
				err := st.ScanFrom(q, scanKey(start), func(k, v []byte) bool {
					i := start + rows
					if !bytes.Equal(k, scanKey(i)) {
						t.Errorf("scan row %d = %s, want %s", rows, k, scanKey(i))
						return false
					}
					held := false
					for _, h := range hist[i][from[i]:] {
						held = held || h == string(v)
					}
					if !held {
						t.Errorf("scan row %s = %q, a value it never held during the scan", k, v)
						return false
					}
					if rows++; rows == 20 {
						paused.Fire()
						resume.Await(q)
					}
					return true
				})
				if err != nil {
					t.Errorf("scan: %v", err)
				}
				done.Fire()
			})
			paused.Await(p)
			for i := 0; i < 3; i++ {
				put(p, spread(start+rng.Intn(40), n, 2+rng.Intn(3), 0))
			}
			resume.Fire()
			done.Await(p)
			if rows != n-start {
				t.Fatalf("scan from %d returned %d rows, want %d", start, rows, n-start)
			}
		}

		// heldSnapshot scans a snapshot, lets three checkpoints rewrite
		// most leaves, and scans it again: both scans must be the model as
		// of the snapshot, and the first scan's rows must still hold.
		heldSnapshot := func() {
			want := make(map[string]string, len(model))
			for k, v := range model {
				want[k] = v
			}
			sn, err := st.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			type row struct{ k, v, vc []byte }
			var first []row
			scan := func() int {
				rows := 0
				if err := sn.Scan(p, func(k, v []byte) bool {
					if w, ok := want[string(k)]; !ok || w != string(v) {
						t.Fatalf("snapshot row %s = %q, want %q", k, v, w)
					}
					if len(first) < len(want) {
						first = append(first, row{k, v, bytes.Clone(v)})
					}
					rows++
					return true
				}); err != nil {
					t.Fatalf("snapshot scan: %v", err)
				}
				return rows
			}
			if rows := scan(); rows != len(want) {
				t.Fatalf("snapshot scan: %d rows, want %d", rows, len(want))
			}
			for i := 0; i < 3; i++ {
				put(p, spread(rng.Intn(10), n, 1+rng.Intn(2), 0))
			}
			if rows := scan(); rows != len(want) {
				t.Fatalf("second snapshot scan: %d rows, want %d", rows, len(want))
			}
			for _, r := range first {
				if !bytes.Equal(r.v, r.vc) {
					t.Fatalf("held snapshot row %s = %q, was %q", r.k, r.v, r.vc)
				}
			}
			sn.Release()
			for i := 0; i < 2; i++ { // dispose of the quarantine, then reuse it
				put(p, spread(rng.Intn(10), n, 1+rng.Intn(2), 0))
			}
		}

		// copyAcross copies keys [lo, lo+30) to "copy" keys the way place
		// catches a replica up: Get, then Txn.Put, then the next Get,
		// while a checkpointing writer rewrites the keys around them.
		copyAcross := func() {
			lo := rng.Intn(n - 30)
			stop, stopped := false, sim.NewCond(eng)
			eng.Go(func(q *sim.Proc) {
				for !stop {
					put(q, spread(0, n, 2+rng.Intn(3), 15, lo+15))
				}
				stopped.Fire()
			})
			tx := st.Begin()
			copied := map[string]string{}
			for i := lo; i < lo+30; i++ {
				forget()
				v, err := st.Get(p, scanKey(i))
				if err != nil {
					t.Fatalf("get: %v", err)
				}
				want := model[string(scanKey(i))]
				if string(v) != want {
					t.Fatalf("Get(%s) = %q, want %q", scanKey(i), v, want)
				}
				k := fmt.Sprintf("copy%06d", i)
				tx.Put([]byte(k), v)
				copied[k] = want
				p.Sleep(200 * sim.Microsecond)
			}
			stop = true
			stopped.Await(p)
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit: %v", err)
			}
			for k, v := range copied {
				model[k] = v
			}
		}

		heldGets()
		copyAcross()
		pausedScan()
		heldSnapshot()
		verify("before the crash")

		sys, _, err = sys.Crash(p)
		if err != nil {
			t.Fatalf("crash: %v", err)
		}
		st = sys.Store
		slowDown(t, st, g)
		verify("after the reopen")
		// The reopened store holds no image of the pages its predecessor
		// wrote, so it frees them without recycling; rewrite them all.
		put(p, spread(0, n, 1, 0))
		if len(st.spareImages) != 0 {
			t.Fatalf("the reopened store recycles %d images of pages it never wrote", len(st.spareImages))
		}

		heldGets()
		heldSnapshot()
		heldGets()
		pausedScan()
		copyAcross()
		verify("at the end")
	})
	eng.Run()
}
