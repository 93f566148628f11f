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

// slowPages wraps a store's page store. A read of a page of the held
// kind (see btree: 1 a leaf, 2 an internal page) issued by one of the
// procs in slow takes its bytes from the device when it is issued, as a
// chip read does, and hands them back only when release fires: a get
// held in its device read for as long as the test likes.
type slowPages struct {
	core.PageStore
	kind    byte
	slow    map[*sim.Proc]bool
	held    int
	release *sim.Cond
}

func (g *slowPages) ReadPage(p *sim.Proc, lpn int64) ([]byte, error) {
	data, err := g.PageStore.ReadPage(p, lpn)
	if err != nil || !g.slow[p] || len(data) == 0 || data[0] != g.kind {
		return data, err
	}
	g.held++
	g.release.Await(p)
	g.held--
	return data, err
}

// slowDown puts st's page reads behind g, with a 2-frame cache.
func slowDown(tb testing.TB, st *Store, g *slowPages) {
	tb.Helper()
	g.PageStore = st.pages
	cache, err := bufpool.New(g, 2)
	if err != nil {
		tb.Fatal(err)
	}
	st.pages, st.cache = g, cache
}

// TestRecycledImageNeverReachesAReader: a page a checkpoint frees keeps
// its ID, its content and its image until no read that could reach it
// is in flight. A seeded script on a 2-frame store, crashed and reopened
// half way, checks every value it reads against a model:
//   - gets held in a device read of their path's leaf or internal page
//     while one checkpoint frees that path and the next writes more
//     pages than the first freed;
//   - a ScanFrom paused part way, and a Snapshot, each held across
//     several checkpoints;
//   - gets whose values go into a Txn.Put while checkpoints run between
//     them (place's catch-up copy), read back after the commit.
//
// It runs on both assemblies: conservative (no trims) and the paper's
// progressive stack, which trims freed pages. Handing freed IDs back to
// the free list and trimming them at the checkpoint, with only image
// reuse waiting for the gets in flight, fails every internal-page case
// (a held get descends into a page the next checkpoint wrote at a reused
// ID: "key not found") and two progressive seeds (a get reads a trimmed
// page: "corrupt page"). Recycling freed images at the checkpoint fails
// every case: held gets and paused scans search other pages' bytes.
func TestRecycledImageNeverReachesAReader(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, progressive := range []bool{false, true} {
				assembly := "conservative"
				if progressive {
					assembly = "progressive"
				}
				t.Run(assembly, func(t *testing.T) {
					for _, kind := range []struct {
						name string
						tag  byte
					}{{"leaf", 1}, {"internal", 2}} {
						t.Run(kind.name, func(t *testing.T) { recycleScript(t, seed, progressive, kind.tag) })
					}
				})
			}
		})
	}
}

func recycleScript(t *testing.T, seed uint64, progressive bool, kind byte) {
	const n = 600
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		var sys *System
		var err error
		cfg := Config{CheckpointBytes: 1 << 30}
		if progressive {
			sys, err = BuildProgressive(p, eng, buildFlash(t, eng), buildMemBus(t, eng), 1<<20, 2, cfg)
		} else {
			sys, err = BuildConservative(p, eng, buildFlash(t, eng), 64, 2, cfg)
		}
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		st := sys.Store
		g := &slowPages{kind: kind, slow: map[*sim.Proc]bool{}, release: sim.NewCond(eng)}
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

		// heldGets holds three gets in a page read on their paths across a
		// checkpoint freeing those paths (their neighbours change) and one
		// rewriting every other leaf, which needs more pages than the first
		// freed.
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
					t.Fatalf("%d of %d gets reached their held read", g.held, len(keys))
				}
				p.Sleep(sim.Microsecond)
			}
			put(p, []int{keys[0] - 1, keys[0] + 1, keys[1] - 1, keys[1] + 1, keys[2] - 1, keys[2] + 1})
			if st.pins != len(keys) || len(st.limbo) == 0 {
				t.Fatalf("%d pins held, %d pages in limbo; want %d and the freed paths'", st.pins, len(st.limbo), len(keys))
			}
			put(p, spread(0, n, 1+rng.Intn(3), 60, keys...))
			g.release.Fire()
			wg.Wait(p)
			if st.pins != 0 || len(st.limbo) != 0 {
				t.Fatalf("%d pins held, %d pages in limbo after the gets returned", st.pins, len(st.limbo))
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
			for i := 0; i < 2; i++ { // reuse what the release disposed of
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

// TestReleaseAfterReopenDisposesNothing: a snapshot held across a
// progressive Reopen keeps the closed store's limbo pinned. The
// successor rebuilds its free list from the media, so it owns those
// pages and rewrites them at its first checkpoint; the snapshot's
// release afterwards must not trim them (a closed store disposes of
// nothing). The successor must still read back every key from the
// device.
func TestReleaseAfterReopenDisposesNothing(t *testing.T) {
	const n = 300
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		sys, err := BuildProgressive(p, eng, buildFlash(t, eng), buildMemBus(t, eng), 1<<20, 2, Config{CheckpointBytes: 1 << 30})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		model := map[string]string{}
		// put rewrites every key, then checkpoints.
		put := func(st *Store, round int) {
			tx := st.Begin()
			for i := 0; i < n; i++ {
				v := fmt.Sprintf("r%d-%06d-%s", round, i, bytes.Repeat([]byte{'x'}, 40))
				tx.Put(scanKey(i), []byte(v))
				model[string(scanKey(i))] = v
			}
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if err := st.Checkpoint(p); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		old := sys.Store
		put(old, 0)
		sn, err := old.Snapshot()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		put(old, 1)
		if len(old.limbo) == 0 {
			t.Fatal("the checkpoint under the snapshot left nothing in limbo")
		}
		if sys, err = sys.Reopen(p); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		st := sys.Store
		put(st, 2) // reuses the pages the closed store holds in limbo
		sn.Release()
		for id := int64(0); id < st.nextPage; id++ {
			st.cache.Invalidate(id)
		}
		for i := 0; i < n; i++ {
			k := scanKey(i)
			if got, err := st.Get(p, k); err != nil || string(got) != model[string(k)] {
				t.Fatalf("Get(%s) after the release = %q, %v; want %q", k, got, err, model[string(k)])
			}
		}
	})
	eng.Run()
}

// TestRecycledChunkNeverReachesAReader: a memtable's chunks carry a later
// memtable's bytes only once it is retired and no pin is held. On both
// assemblies, with every round's values of another length and letter so
// that a reused chunk shows:
//   - gets of rows in the frozen memtable while its checkpoint is held in
//     a page read and puts fill the next memtable, each value checked
//     before the getter yields;
//   - a ScanFrom paused on a frozen row and a Snapshot taken during that
//     checkpoint, both held across it (which retires those rows) and
//     across more puts and a checkpoint: the scan resumes just past the
//     row it paused on, and the snapshot reads the same rows again, the
//     first scan's still as they were;
//   - a batch cut before a freeze that lands after it, in the memtable
//     the freeze started, with the caller's ops overwritten as soon as
//     the hand-off returned, read back after the next checkpoint.
//
// Recycling the frozen memtable's chunks at the freeze fails the gets;
// recycling a retired memtable's chunks without waiting for the pin
// count fails the scan and the snapshot.
func TestRecycledChunkNeverReachesAReader(t *testing.T) {
	for _, progressive := range []bool{false, true} {
		assembly := "conservative"
		if progressive {
			assembly = "progressive"
		}
		t.Run(assembly, func(t *testing.T) { chunkScript(t, progressive) })
	}
}

func chunkScript(t *testing.T, progressive bool) {
	const n = 400
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		var sys *System
		var err error
		cfg := Config{CheckpointBytes: 1 << 30}
		if progressive {
			sys, err = BuildProgressive(p, eng, buildFlash(t, eng), buildMemBus(t, eng), 1<<20, 2, cfg)
		} else {
			sys, err = BuildConservative(p, eng, buildFlash(t, eng), 64, 2, cfg)
		}
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		st := sys.Store
		g := &slowPages{kind: 2, slow: map[*sim.Proc]bool{}, release: sim.NewCond(eng)}
		slowDown(t, st, g)
		hist := make([][]string, n) // every value key i held, in order
		model := map[string]string{}
		round := 0
		keys := func(lo, step int) []int {
			var ks []int
			for i := lo; i < n; i += step {
				ks = append(ks, i)
			}
			return ks
		}
		// write commits a new value for each of keys, in batches of 10.
		write := func(keys []int) {
			round++
			var ops []BatchOp
			for j, i := range keys {
				v := fmt.Sprintf("r%d-%06d-%s", round, i, bytes.Repeat([]byte{byte('a' + round%26)}, 8+(round*7+i)%50))
				ops = append(ops, BatchOp{Key: scanKey(i), Value: []byte(v)})
				hist[i] = append(hist[i], v)
				model[string(scanKey(i))] = v
				if len(ops) == 10 || j == len(keys)-1 {
					if err := applyBatch(p, st, ops); err != nil {
						t.Fatalf("put: %v", err)
					}
					ops = ops[:0]
				}
			}
		}
		checkpoint := func() {
			if err := st.Checkpoint(p); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		verify := func(when string) {
			for k, want := range model {
				if got, err := st.Get(p, []byte(k)); err != nil || string(got) != want {
					t.Fatalf("%s: Get(%s) = %q, %v; want %q", when, k, got, err, want)
				}
			}
			rows := 0
			if err := st.ScanFrom(p, nil, func(k, v []byte) bool {
				if want := model[string(k)]; want != string(v) {
					t.Fatalf("%s: scan row %s = %q, want %q", when, k, v, want)
				}
				rows++
				return true
			}); err != nil || rows != len(model) {
				t.Fatalf("%s: full scan %d rows, %v; want %d", when, rows, err, len(model))
			}
		}
		write(keys(0, 1))
		checkpoint()
		for range 2 { // warm the arena's spares
			write(keys(0, 1))
			checkpoint()
		}

		// Freeze every key's new value and hold the checkpoint in its
		// root's read.
		write(keys(0, 1))
		frozen := make(map[string]string, len(model))
		for k, v := range model {
			frozen[k] = v
		}
		for id := int64(0); id < st.nextPage; id++ {
			st.cache.Invalidate(id)
		}
		checkpointed := sim.NewCond(eng)
		g.release.Reset()
		eng.Go(func(q *sim.Proc) {
			g.slow[q] = true
			if err := st.Checkpoint(q); err != nil {
				t.Errorf("held checkpoint: %v", err)
			}
			delete(g.slow, q)
			checkpointed.Fire()
		})
		for i := 0; g.held == 0; i++ {
			if i == 1000 {
				t.Fatal("the checkpoint never reached its held read")
			}
			p.Sleep(sim.Microsecond)
		}
		if st.frozen == nil {
			t.Fatal("no frozen memtable while the checkpoint is held")
		}
		write(keys(1, 2)) // odd keys into the next memtable
		for _, i := range keys(0, 2) {
			k := scanKey(i)
			got, err := st.Get(p, k)
			if err != nil || string(got) != frozen[string(k)] {
				t.Fatalf("Get(%s) of a frozen row = %q, %v; want %q", k, got, err, frozen[string(k)])
			}
		}

		// A snapshot, and a scan paused on a frozen row: an even key, in one
		// of the last chunks frozen filled, which a recycling would reuse
		// first.
		sn, err := st.Snapshot()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		want := make(map[string]string, len(model))
		for k, v := range model {
			want[k] = v
		}
		type row struct{ k, v, kc, vc []byte }
		var first []row
		if err := sn.Scan(p, func(k, v []byte) bool {
			if w := want[string(k)]; w != string(v) {
				t.Fatalf("snapshot row %s = %q, want %q", k, v, w)
			}
			first = append(first, row{k, v, bytes.Clone(k), bytes.Clone(v)})
			return true
		}); err != nil || len(first) != n {
			t.Fatalf("snapshot scan: %d rows, %v; want %d", len(first), err, n)
		}
		from := make([]int, n)
		for i := range hist {
			from[i] = len(hist[i]) - 1
		}
		paused, resume, scanned := sim.NewCond(eng), sim.NewCond(eng), sim.NewCond(eng)
		rows := 0
		eng.Go(func(q *sim.Proc) {
			err := st.ScanFrom(q, nil, func(k, v []byte) bool {
				if !bytes.Equal(k, scanKey(rows)) {
					t.Errorf("scan row %d = %s, want %s", rows, k, scanKey(rows))
					return false
				}
				if !slices.Contains(hist[rows][from[rows]:], string(v)) {
					t.Errorf("scan row %s = %q, a value it never held during the scan", k, v)
					return false
				}
				if rows++; rows == n-19 {
					paused.Fire()
					resume.Await(q)
				}
				return true
			})
			if err != nil {
				t.Errorf("scan: %v", err)
			}
			scanned.Fire()
		})
		paused.Await(p)
		g.release.Fire()
		checkpointed.Await(p)
		if len(st.retired) == 0 {
			t.Fatal("the checkpoint under the pins retired no memtable")
		}
		for range 2 {
			write(keys(0, 1))
			checkpoint()
		}
		write(keys(0, 1))
		resume.Fire()
		scanned.Await(p)
		if rows != n {
			t.Fatalf("the paused scan returned %d rows, want %d", rows, n)
		}
		i := 0
		if err := sn.Scan(p, func(k, v []byte) bool {
			if i >= len(first) || !bytes.Equal(k, first[i].kc) || !bytes.Equal(v, first[i].vc) {
				t.Fatalf("snapshot row %d = %q:%q on a second scan, want the first scan's", i, k, v)
			}
			i++
			return true
		}); err != nil || i != len(first) {
			t.Fatalf("second snapshot scan: %d rows, %v; want %d", i, err, len(first))
		}
		for _, r := range first {
			if !bytes.Equal(r.k, r.kc) || !bytes.Equal(r.v, r.vc) {
				t.Fatalf("a held snapshot row changed: %q = %q, was %q = %q", r.k, r.v, r.kc, r.vc)
			}
		}
		sn.Release()
		checkpoint()
		verify("after the release")

		// A batch cut before a freeze lands after it.
		var ops []BatchOp
		for _, i := range keys(3, 17) {
			v := fmt.Sprintf("batch-%06d-%s", i, bytes.Repeat([]byte{'Z'}, 30))
			ops = append(ops, BatchOp{Key: scanKey(i), Value: []byte(v)})
			model[string(scanKey(i))] = v
		}
		landed := sim.NewCond(eng)
		var lerr error
		afterFreeze := false
		if err := st.ApplyBatchAsync(p, ops, func(err error) {
			lerr, afterFreeze = err, st.frozen != nil
			landed.Fire()
		}); err != nil {
			t.Fatalf("hand-off: %v", err)
		}
		for _, op := range ops { // the caller reuses its buffers at once
			copy(op.Key, "XXXX")
			clear(op.Value)
		}
		checkpoint()
		landed.Await(p)
		if lerr != nil || !afterFreeze {
			t.Fatalf("the batch landed with %v, after the freeze: %v; want it to land in the next memtable", lerr, afterFreeze)
		}
		write(keys(0, 2))
		checkpoint()
		write(keys(1, 2))
		verify("after the batch's checkpoint")
		checkpoint()
		verify("at the end")
	})
	eng.Run()
}
