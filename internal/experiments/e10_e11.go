package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/pcm"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// buildEngineFlash constructs the flash device used by the storage
// engine experiments.
func buildEngineFlash(eng *sim.Engine, scale Scale) (*ssd.Device, error) {
	opt := smallOptions(scale)
	opt.BlocksPerPlane = scale.pick(96, 256)
	d, err := ssd.Build(eng, ssd.Enterprise2012, opt)
	if err != nil {
		return nil, err
	}
	return d.(*ssd.Device), nil
}

func buildMembus(eng *sim.Engine) (*pcm.MemBus, error) {
	cfg := pcm.DefaultConfig()
	cfg.CapacityBytes = 1 << 24
	dev, err := pcm.New(eng, "pcm0", cfg)
	if err != nil {
		return nil, err
	}
	return pcm.NewMemBus(eng, dev), nil
}

// E10CommitLatency regenerates §3 principle 1: synchronous log writes
// belong on PCM via the memory bus; the same storage engine over the
// conservative stack pays the full block path per commit.
func E10CommitLatency(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E10",
		Title: "§3.1 — sync to PCM, async to flash: transaction commits",
		Claim: "synchronous patterns (log writes) should go to PCM via memory accesses; asynchronous patterns to flash via I/O",
	}
	t := metrics.NewTable("Same KV engine, two persistence stacks",
		"stack", "clients", "txns/s", "commit p50(µs)", "commit p99(µs)", "syncs/commit")
	tr := metrics.NewTable("Crash after a checkpoint and a committed tail",
		"stack", "clients", "tail txns", "crash to open (µs)", "keys read back different")

	var consP50, progP50 [2]float64
	var recovery [2]sim.Time
	differ := 0
	for ci, clients := range []int{1, 8} {
		for _, progressive := range []bool{false, true} {
			eng := sim.NewEngine()
			var hist metrics.Histogram
			txns := 0
			var elapsed sim.Time
			var syncsPerCommit float64
			// The first error any proc hits; the simulation runs one proc
			// at a time, so a plain variable holds it.
			var firstErr error
			fail := func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			}
			setup := sim.NewCond(eng)
			var sys *kvstore.System
			eng.Go(func(p *sim.Proc) {
				flash, err := buildEngineFlash(eng, scale)
				if err != nil {
					fail(err)
					return
				}
				cfg := kvstore.Config{CheckpointBytes: 64 << 10}
				if progressive {
					mb, err := buildMembus(eng)
					if err != nil {
						fail(err)
						return
					}
					sys, err = kvstore.BuildProgressive(p, eng, flash, mb, 1<<22, clients, cfg)
					if err != nil {
						fail(err)
						return
					}
				} else {
					var err error
					sys, err = kvstore.BuildConservative(p, eng, flash, 256, clients, cfg)
					if err != nil {
						fail(err)
						return
					}
				}
				setup.Fire()
			})
			perClient := scale.pick(40, 400)
			start := sim.Time(0)
			for c := 0; c < clients; c++ {
				c := c
				eng.Go(func(p *sim.Proc) {
					setup.Await(p)
					gen, err := workload.NewTxnGenerator(e10Keys, 100, 4, uint64(c+1))
					if err != nil {
						fail(err)
						return
					}
					for i := 0; i < perClient; i++ {
						tx := stage(sys.Store, gen.Next())
						t0 := p.Now()
						if err := tx.Commit(p); err != nil {
							fail(err)
							return
						}
						hist.Record(int64(p.Now() - t0))
						txns++
					}
				})
			}
			eng.Run()
			if firstErr != nil {
				return nil, firstErr
			}
			elapsed = eng.Now() - start
			if sys.Store.WAL().Commits > 0 {
				syncsPerCommit = float64(sys.Store.WAL().Syncs) / float64(sys.Store.WAL().Commits)
			}
			name := "conservative (block device)"
			if progressive {
				name = "progressive (PCM log + direct flash)"
			}
			tput := float64(txns) / elapsed.Seconds()
			t.AddRow(name, clients, fmt.Sprintf("%.0f", tput),
				us(hist.P50()), us(hist.P99()), fmt.Sprintf("%.2f", syncsPerCommit))
			if progressive {
				progP50[ci] = float64(hist.P50())
			} else {
				consP50[ci] = float64(hist.P50())
			}

			// Recovery, once the window's numbers are taken.
			took, bad, err := crashRecovery(eng, sys, e10Tail)
			if err != nil {
				return nil, err
			}
			tr.AddRow(name, clients, e10Tail, us(int64(took)), bad)
			if progressive {
				recovery[1] = took
			} else {
				recovery[0] = took
			}
			differ += bad
		}
	}
	res.Tables = append(res.Tables, t, tr)
	res.Finding = fmt.Sprintf(
		"PCM-logged commits are %.0fx faster at 1 client (p50 %.1fµs vs %.0fµs) and %.0fx at 8 clients",
		consP50[0]/progP50[0], progP50[0]/1e3, consP50[0]/1e3, consP50[1]/progP50[1])
	res.Headline = map[string]float64{
		"speedup_1client_x":        consP50[0] / progP50[0],
		"speedup_8clients_x":       consP50[1] / progP50[1],
		"progressive_p50_1c_us":    progP50[0] / 1e3,
		"conservative_p50_1c_us":   consP50[0] / 1e3,
		"recovery_conservative_us": recovery[0].Micros(),
		"recovery_progressive_us":  recovery[1].Micros(),
		"keys_read_back_different": float64(differ),
	}
	return res, nil
}

// e10Keys is the key space E10's transactions draw from; e10Tail is the
// number of transactions committed after the checkpoint its crash
// recovers from.
const (
	e10Keys = 2000
	e10Tail = 16
)

// crashRecovery runs §3.1's recovery on sys once its clients are done:
// it reads every key the transaction generator can touch, checkpoints,
// commits tail transactions past the checkpoint, crashes the system and
// reads every key back from the reopened store. It returns the virtual
// time from the crash to the reopened store and the keys whose value
// (or absence) differs from what was committed.
func crashRecovery(eng *sim.Engine, sys *kvstore.System, tail int) (took sim.Time, differ int, err error) {
	eng.Go(func(p *sim.Proc) { took, differ, err = recoverOnce(p, sys, tail) })
	eng.Run()
	return took, differ, err
}

func recoverOnce(p *sim.Proc, sys *kvstore.System, tail int) (sim.Time, int, error) {
	read := func(s *kvstore.Store) (map[string][]byte, error) {
		rows := map[string][]byte{}
		for i := range e10Keys {
			key := fmt.Sprintf("key%08d", i)
			v, err := s.Get(p, []byte(key))
			if errors.Is(err, kvstore.ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, err
			}
			rows[key] = bytes.Clone(v)
		}
		return rows, nil
	}
	want, err := read(sys.Store)
	if err != nil {
		return 0, 0, err
	}
	if err := sys.Store.Checkpoint(p); err != nil {
		return 0, 0, err
	}
	gen, err := workload.NewTxnGenerator(e10Keys, 100, 4, 1<<20)
	if err != nil {
		return 0, 0, err
	}
	for range tail {
		txn := gen.Next()
		if err := stage(sys.Store, txn).Commit(p); err != nil {
			return 0, 0, err
		}
		maps.Copy(want, txn.Puts)
		for _, k := range txn.Deletes {
			delete(want, k)
		}
	}
	t0 := p.Now()
	fresh, _, err := sys.Crash(p)
	if err != nil {
		return 0, 0, err
	}
	took := p.Now() - t0
	got, err := read(fresh.Store)
	if err != nil {
		return 0, 0, err
	}
	differ := 0
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			differ++
		}
		delete(got, k)
	}
	return took, differ + len(got), nil
}

// stage begins a transaction on s holding txn: its puts in key order
// (map order would reach the WAL and move elapsed time by a nanosecond
// from run to run), then its deletes.
func stage(s *kvstore.Store, txn workload.Txn) *kvstore.Txn {
	tx := s.Begin()
	for _, k := range slices.Sorted(maps.Keys(txn.Puts)) {
		tx.Put([]byte(k), txn.Puts[k])
	}
	for _, k := range txn.Deletes {
		tx.Delete([]byte(k))
	}
	return tx
}

// E11Codesign regenerates §3 principle 2: the communication abstraction
// (nameless writes + trim + atomic writes) removes redundant work:
// (a) host-informed liveness cuts device GC traffic;
// (b) atomic writes replace the double-write/flush discipline.
func E11Codesign(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "E11",
		Title: "§3.2 — communication abstraction: nameless writes, trim, atomic writes",
		Claim: "the granularity and semantics of the interface should change: nameless writes are interesting; atomic writes remove redundant logging",
	}

	// Part (a): a copy-on-write host (like our B+tree engine, or any
	// log-structured file) writes each object version to a NEW location
	// and abandons the old one. Without communication, the device cannot
	// tell the abandoned version is dead and GC drags it along; with
	// nameless writes + trim, liveness is explicit.
	runChurn := func(informDevice bool) (float64, int64, int, error) {
		eng := sim.NewEngine()
		opt := smallOptions(scale)
		opt.BufferPages = -1
		opt.OverProvision = 0.12
		d, err := ssd.Build(eng, ssd.Enterprise2012, opt)
		if err != nil {
			return 0, 0, 0, err
		}
		dev := d.(*ssd.Device)
		liveSet := int(dev.Capacity() * 6 / 10) // truly-live object count
		n := scale.pick(3, 6) * int(dev.Capacity())
		var errOut error
		bad := 0
		eng.Go(func(p *sim.Proc) {
			rng := sim.NewRNG(31)
			if informDevice {
				obj, err := core.NewObjectStore(dev)
				if err != nil {
					errOut = err
					return
				}
				// Each version is stamped with its write number, so a
				// read-back tells whose bytes it got.
				page := make([]byte, dev.PageSize())
				stamp := func(i int) []byte {
					binary.LittleEndian.PutUint64(page, uint64(i))
					return page
				}
				live := make([]core.Token, 0, liveSet)
				wrote := make([]int, 0, liveSet) // the write number of each object's version
				for i := 0; i < n; i++ {
					if len(live) < liveSet {
						tok, err := obj.Put(p, stamp(i))
						if err != nil {
							errOut = err
							return
						}
						live = append(live, tok)
						wrote = append(wrote, i)
						continue
					}
					// COW update: write new version, trim the old one —
					// the device learns liveness immediately.
					o := rng.Intn(liveSet)
					if err := obj.Update(p, live[o], stamp(i)); err != nil {
						errOut = err
						return
					}
					wrote[o] = i
				}
				// Read every object back by its token, through the
				// relocations GC announced.
				for o, tok := range live {
					data, err := obj.Get(p, tok)
					if err != nil || len(data) < 8 || binary.LittleEndian.Uint64(data) != uint64(wrote[o]) {
						bad++
					}
				}
				return
			}
			// Conservative COW host over the block interface: each new
			// version goes to an LPN from the host's (scrambled) free
			// list; the old version is simply abandoned — no trim, so
			// the FTL must treat it as live until that LPN is reused.
			span := dev.Capacity()
			free := make([]int64, 0, span)
			for _, idx := range rng.Perm(int(span)) {
				free = append(free, int64(idx))
			}
			pop := func() int64 {
				i := rng.Intn(len(free))
				lpn := free[i]
				free[i] = free[len(free)-1]
				free = free[:len(free)-1]
				return lpn
			}
			write := func(lpn int64) bool {
				c := sim.NewCond(eng)
				var werr error
				dev.Write(lpn, nil, func(err error) { werr = err; c.Fire() })
				c.Await(p)
				if werr != nil {
					errOut = werr
				}
				return werr == nil
			}
			liveAt := make([]int64, 0, liveSet)
			for i := 0; i < n; i++ {
				if len(liveAt) < liveSet {
					lpn := pop()
					if !write(lpn) {
						return
					}
					liveAt = append(liveAt, lpn)
					continue
				}
				obj := rng.Intn(liveSet)
				lpn := pop()
				if !write(lpn) {
					return
				}
				free = append(free, liveAt[obj]) // abandoned, not trimmed
				liveAt[obj] = lpn
			}
		})
		eng.Run()
		if errOut != nil {
			return 0, 0, 0, errOut
		}
		wa := ftl.WriteAmplification(dev.FTL(), dev.Array())
		return wa, dev.FTL().Stats().GCMoves, bad, nil
	}
	waInformed, movesInformed, badReads, err := runChurn(true)
	if err != nil {
		return nil, err
	}
	waBlind, movesBlind, _, err := runChurn(false)
	if err != nil {
		return nil, err
	}
	ta := metrics.NewTable("(a) Object churn: device-informed liveness vs blind block writes",
		"interface", "write amplification", "GC page moves", "bad read-backs")
	ta.AddRow("nameless writes + trim (peers)", fmt.Sprintf("%.2f", waInformed), movesInformed, badReads)
	ta.AddRow("block writes, no trim (master/slave)", fmt.Sprintf("%.2f", waBlind), movesBlind, "-")
	res.Tables = append(res.Tables, ta)

	// Part (b): metadata flip cost — double-write vs atomic write.
	runMeta := func(atomic bool) (sim.Time, error) {
		eng := sim.NewEngine()
		flash, err := buildEngineFlash(eng, scale)
		if err != nil {
			return 0, err
		}
		var elapsed sim.Time
		var errOut error
		eng.Go(func(p *sim.Proc) {
			mb, err := buildMembus(eng)
			if err != nil {
				errOut = err
				return
			}
			var sys *kvstore.System
			if atomic {
				sys, err = kvstore.BuildProgressive(p, eng, flash, mb, 1<<22, 2, kvstore.Config{CheckpointBytes: 1 << 30})
			} else {
				sys, err = kvstore.BuildConservative(p, eng, flash, 256, 2, kvstore.Config{CheckpointBytes: 1 << 30})
			}
			if err != nil {
				errOut = err
				return
			}
			// Load some data, then measure explicit checkpoints.
			for i := 0; i < scale.pick(60, 300); i++ {
				tx := sys.Store.Begin()
				tx.Put([]byte(fmt.Sprintf("key%05d", i)), make([]byte, 120))
				if err := tx.Commit(p); err != nil {
					errOut = err
					return
				}
			}
			t0 := p.Now()
			if err := sys.Store.Checkpoint(p); err != nil {
				errOut = err
				return
			}
			elapsed = p.Now() - t0
		})
		eng.Run()
		return elapsed, errOut
	}
	cpAtomic, err := runMeta(true)
	if err != nil {
		return nil, err
	}
	cpDouble, err := runMeta(false)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("(b) Checkpoint metadata flip",
		"mechanism", "checkpoint time (µs)")
	tb.AddRow("atomic write (one command)", fmt.Sprintf("%.1f", cpAtomic.Micros()))
	tb.AddRow("double write + flushes", fmt.Sprintf("%.1f", cpDouble.Micros()))
	res.Tables = append(res.Tables, tb)

	res.Finding = fmt.Sprintf(
		"liveness communication cuts WA from %.2f to %.2f (GC moves %d -> %d); atomic meta flip makes checkpoints %.1fx faster",
		waBlind, waInformed, movesBlind, movesInformed, float64(cpDouble)/float64(cpAtomic))
	res.Headline = map[string]float64{
		"wa_blind":             waBlind,
		"wa_informed":          waInformed,
		"gc_moves_blind":       float64(movesBlind),
		"gc_moves_informed":    float64(movesInformed),
		"checkpoint_speedup_x": float64(cpDouble) / float64(cpAtomic),
		"bad_read_backs":       float64(badReads),
	}
	return res, nil
}
