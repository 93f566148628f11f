package kvstore

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/sim"
)

// residentRun is what one seeded run of residentScript leaves behind.
type residentRun struct {
	s                       *Store
	hits, misses, evictions int64
	cached                  []int64 // page IDs the cache holds at the end
	// cases counts the reader's gets by where Resident found the key:
	// mem, frozen, tree (every page cached) and none (a miss follows).
	cases map[string]int
}

// residentScript runs a seeded put/checkpoint/get script on a store
// whose cache holds a fraction of its tree: a writer commits single
// puts (checkpointing whenever the memtable fills) while a reader gets
// random keys, present and absent. With probe set the reader asks
// Resident before every get and fails t unless the probe changed no
// counter and predicted the get exactly: true when the get adds no
// cache miss, false when it adds one. It also probes a second key it
// does not get, as a router does for the replicas it passes over.
func residentScript(t *testing.T, probe bool) residentRun {
	t.Helper()
	const keys = 600
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%04d", i)) }
	val := make([]byte, 48)
	run := residentRun{cases: map[string]int{}}
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		sys, err := BuildConservative(p, eng, buildFlash(t, eng), 64, 2, Config{CacheFrames: 6, CheckpointBytes: 4 << 10})
		if err != nil {
			t.Errorf("build: %v", err)
			return
		}
		s := sys.Store
		run.s = s
		for i := 0; i < keys; i += 20 {
			tx := s.Begin()
			for j := i; j < i+20; j++ {
				tx.Put(key(j), val)
			}
			if err := tx.Commit(p); err != nil {
				t.Errorf("preload: %v", err)
				return
			}
		}
		if err := s.Checkpoint(p); err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}
		if s.TreeHeight() < 2 {
			t.Errorf("tree height %d: the script needs internal pages", s.TreeHeight())
			return
		}
		eng.Go(func(p *sim.Proc) { // writer
			rng := rand.New(rand.NewPCG(1, 2))
			for i := 0; i < 300; i++ {
				tx := s.Begin()
				tx.Put(key(rng.IntN(keys)), val)
				if err := tx.Commit(p); err != nil {
					t.Errorf("put %d: %v", i, err)
					return
				}
				p.Sleep(40 * sim.Microsecond)
			}
		})
		rng := rand.New(rand.NewPCG(3, 4)) // reader
		for i := 0; i < 2000; i++ {
			k := key(rng.IntN(keys + keys/10)) // one key in 11 absent
			other := key(rng.IntN(keys))
			c := s.Cache()
			hits, misses, evictions := c.Hits, c.Misses, c.Evictions
			resident := false
			if probe {
				s.Resident(other)
				resident = s.Resident(k)
				if c.Hits != hits || c.Misses != misses || c.Evictions != evictions {
					t.Errorf("get %d: Resident moved hits/misses/evictions %d/%d/%d -> %d/%d/%d",
						i, hits, misses, evictions, c.Hits, c.Misses, c.Evictions)
					return
				}
				_, inMem := s.mem.get(k)
				_, inFrozen := s.frozen.get(k)
				switch {
				case inMem:
					run.cases["mem"]++
				case inFrozen:
					run.cases["frozen"]++
				case resident:
					run.cases["tree"]++
				default:
					run.cases["none"]++
				}
			}
			if _, err := s.Get(p, k); err != nil && !errors.Is(err, ErrNotFound) {
				t.Errorf("get %d: %v", i, err)
				return
			}
			if missed := c.Misses != misses; probe && missed == resident {
				t.Errorf("get %d of %s: Resident = %v, but the get missed = %v", i, k, resident, missed)
				return
			}
			p.Sleep(7 * sim.Microsecond)
		}
	})
	eng.Run()
	if s := run.s; s != nil {
		c := s.Cache()
		run.hits, run.misses, run.evictions = c.Hits, c.Misses, c.Evictions
		for id := int64(0); id < s.nextPage; id++ {
			if _, ok := c.Peek(id); ok {
				run.cached = append(run.cached, id)
			}
		}
	}
	return run
}

// TestResidentPredictsCacheMisses: on a seeded put/checkpoint/get
// script, Resident(key) is true exactly when the next Get(key) adds no
// cache miss, across memtable, frozen-memtable, cached-path and
// uncached-path keys. The probe moves no counter, and a run that probes
// before every get ends with the same counters and the same cached
// pages as one that never probes, so it touched no CLOCK ref bit that
// could change an eviction. It allocates nothing.
func TestResidentPredictsCacheMisses(t *testing.T) {
	probed := residentScript(t, true)
	if t.Failed() {
		return
	}
	for _, c := range []string{"mem", "frozen", "tree", "none"} {
		if probed.cases[c] == 0 {
			t.Errorf("the script never probed a %s key (cases %v)", c, probed.cases)
		}
	}
	plain := residentScript(t, false)
	if probed.hits != plain.hits || probed.misses != plain.misses || probed.evictions != plain.evictions {
		t.Errorf("hits/misses/evictions %d/%d/%d with probes, %d/%d/%d without",
			probed.hits, probed.misses, probed.evictions, plain.hits, plain.misses, plain.evictions)
	}
	if fmt.Sprint(probed.cached) != fmt.Sprint(plain.cached) {
		t.Errorf("cached pages %v with probes, %v without", probed.cached, plain.cached)
	}

	s := probed.s
	var inMem, cachedPath, uncachedPath []byte
	for i := 0; i < 600; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		_, mem := s.mem.get(k)
		switch {
		case mem:
			inMem = k
		case s.Resident(k):
			cachedPath = k
		default:
			uncachedPath = k
		}
	}
	if inMem == nil || cachedPath == nil || uncachedPath == nil {
		t.Fatalf("no key of each kind at the end: mem %q, cached %q, uncached %q", inMem, cachedPath, uncachedPath)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Resident(inMem)
		s.Resident(cachedPath)
		s.Resident(uncachedPath)
	})
	if allocs != 0 {
		t.Fatalf("Resident allocates %.1f times per three probes", allocs)
	}
}

// TestScanKeepsHotKeysResident: a full ScanFrom reads its leaves on
// probation (btree.Pager.ScanPage), so the keys point reads warmed stay
// resident on a 6-frame cache the scan's 600 keys overflow many times.
// Read as gets, the scan's leaves push the hot paths out.
func TestScanKeepsHotKeysResident(t *testing.T) {
	const keys = 600
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%04d", i)) }
	hot := [][]byte{key(0), key(290), key(599)}
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		sys, err := BuildConservative(p, eng, buildFlash(t, eng), 64, 2, Config{CacheFrames: 6, CheckpointBytes: 4 << 10})
		if err != nil {
			t.Errorf("build: %v", err)
			return
		}
		s := sys.Store
		val := make([]byte, 48)
		for i := 0; i < keys; i += 20 {
			tx := s.Begin()
			for j := i; j < i+20; j++ {
				tx.Put(key(j), val)
			}
			if err := tx.Commit(p); err != nil {
				t.Errorf("preload: %v", err)
				return
			}
		}
		if err := s.Checkpoint(p); err != nil {
			t.Errorf("checkpoint: %v", err)
			return
		}
		// Start from an empty cache, so the gets alone warm it.
		if s.cache, err = bufpool.New(s.pages, 6); err != nil {
			t.Error(err)
			return
		}
		for range 2 {
			for _, k := range hot {
				if _, err := s.Get(p, k); err != nil {
					t.Errorf("get %s: %v", k, err)
					return
				}
			}
		}
		rows := 0
		if err := s.ScanFrom(p, nil, func(_, _ []byte) bool { rows++; return true }); err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		if rows != keys {
			t.Errorf("scan returned %d rows, want %d", rows, keys)
		}
		if s.TreeHeight() < 2 || s.cache.Misses < 3+6 {
			t.Errorf("height %d, %d misses: the scan did not overflow the cache", s.TreeHeight(), s.cache.Misses)
		}
		for _, k := range hot {
			if !s.Resident(k) {
				t.Errorf("hot key %s not resident after the scan", k)
			}
		}
	})
	eng.Run()
}
