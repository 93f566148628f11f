package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"testing/quick"

	"repro/internal/pcm"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// buildFlash makes a small enterprise device with a safe buffer.
func buildFlash(t testing.TB, eng *sim.Engine) *ssd.Device {
	t.Helper()
	d, err := ssd.Build(eng, ssd.Enterprise2012, ssd.Options{
		Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 64, PagesPerBlock: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d.(*ssd.Device)
}

func buildMemBus(t testing.TB, eng *sim.Engine) *pcm.MemBus {
	t.Helper()
	cfg := pcm.DefaultConfig()
	cfg.CapacityBytes = 1 << 22
	dev, err := pcm.New(eng, "pcm0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pcm.NewMemBus(eng, dev)
}

// withSystem runs fn inside a proc with a freshly-built system.
func withSystem(t *testing.T, progressive bool, fn func(p *sim.Proc, sys *System)) {
	t.Helper()
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		flash := buildFlash(t, eng)
		var sys *System
		var err error
		if progressive {
			sys, err = BuildProgressive(p, eng, flash, buildMemBus(t, eng), 1<<20, 2, Config{CheckpointBytes: 8 << 10})
		} else {
			sys, err = BuildConservative(p, eng, flash, 64, 2, Config{CheckpointBytes: 8 << 10})
		}
		if err != nil {
			t.Errorf("build: %v", err)
			return
		}
		fn(p, sys)
	})
	eng.Run()
}

func TestPutGetCommit(t *testing.T) {
	for _, prog := range []bool{false, true} {
		prog := prog
		t.Run(fmt.Sprintf("progressive=%v", prog), func(t *testing.T) {
			withSystem(t, prog, func(p *sim.Proc, sys *System) {
				tx := sys.Store.Begin()
				tx.Put([]byte("hello"), []byte("world"))
				tx.Put([]byte("answer"), []byte("42"))
				if _, err := sys.Store.Get(p, []byte("hello")); !errors.Is(err, ErrNotFound) {
					t.Fatalf("uncommitted write leaked: %v", err)
				}
				if err := tx.Commit(p); err != nil {
					t.Fatalf("commit: %v", err)
				}
				got, err := sys.Store.Get(p, []byte("hello"))
				if err != nil || string(got) != "world" {
					t.Fatalf("get: %q %v", got, err)
				}
				if _, err := sys.Store.Get(p, []byte("missing")); !errors.Is(err, ErrNotFound) {
					t.Fatalf("missing key: %v", err)
				}
			})
		})
	}
}

func TestDeleteRemoves(t *testing.T) {
	withSystem(t, false, func(p *sim.Proc, sys *System) {
		tx := sys.Store.Begin()
		tx.Put([]byte("k"), []byte("v"))
		tx.Commit(p)
		tx2 := sys.Store.Begin()
		tx2.Delete([]byte("k"))
		if err := tx2.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
		if _, err := sys.Store.Get(p, []byte("k")); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key readable: %v", err)
		}
	})
}

func TestEmptyCommitIsNoop(t *testing.T) {
	withSystem(t, true, func(p *sim.Proc, sys *System) {
		tx := sys.Store.Begin()
		if err := tx.Commit(p); err != nil {
			t.Fatalf("empty commit: %v", err)
		}
		if sys.Store.Commits != 0 {
			t.Fatal("empty commit counted")
		}
	})
}

func TestDoubleCommitRejected(t *testing.T) {
	withSystem(t, true, func(p *sim.Proc, sys *System) {
		tx := sys.Store.Begin()
		tx.Put([]byte("a"), []byte("b"))
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(p); err == nil {
			t.Fatal("double commit accepted")
		}
	})
}

func TestCheckpointAndReadBack(t *testing.T) {
	withSystem(t, true, func(p *sim.Proc, sys *System) {
		for i := 0; i < 50; i++ {
			tx := sys.Store.Begin()
			tx.Put([]byte(fmt.Sprintf("key%03d", i)), bytes.Repeat([]byte{byte(i)}, 64))
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		if err := sys.Store.Checkpoint(p); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if sys.Store.Checkpoints == 0 {
			t.Fatal("no checkpoint recorded")
		}
		for i := 0; i < 50; i++ {
			got, err := sys.Store.Get(p, []byte(fmt.Sprintf("key%03d", i)))
			if err != nil || got[0] != byte(i) {
				t.Fatalf("key%03d after checkpoint: %v %v", i, got, err)
			}
		}
	})
}

func TestScanMergesLayers(t *testing.T) {
	withSystem(t, false, func(p *sim.Proc, sys *System) {
		// Tree layer.
		tx := sys.Store.Begin()
		tx.Put([]byte("a"), []byte("1"))
		tx.Put([]byte("b"), []byte("2"))
		tx.Commit(p)
		sys.Store.Checkpoint(p)
		// Mem layer: overwrite + delete + new.
		tx2 := sys.Store.Begin()
		tx2.Put([]byte("a"), []byte("10"))
		tx2.Delete([]byte("b"))
		tx2.Put([]byte("c"), []byte("3"))
		tx2.Commit(p)
		var keys, vals []string
		sys.Store.ScanFrom(p, nil, func(k, v []byte) bool {
			keys = append(keys, string(k))
			vals = append(vals, string(v))
			return true
		})
		if len(keys) != 2 || keys[0] != "a" || keys[1] != "c" || vals[0] != "10" || vals[1] != "3" {
			t.Fatalf("scan = %v %v", keys, vals)
		}
	})
}

func TestCrashRecoveryPreservesCommitted(t *testing.T) {
	for _, prog := range []bool{false, true} {
		prog := prog
		t.Run(fmt.Sprintf("progressive=%v", prog), func(t *testing.T) {
			withSystem(t, prog, func(p *sim.Proc, sys *System) {
				// Committed before checkpoint.
				tx := sys.Store.Begin()
				tx.Put([]byte("stable"), []byte("yes"))
				tx.Commit(p)
				sys.Store.Checkpoint(p)
				// Committed after checkpoint (lives only in WAL + mem).
				tx2 := sys.Store.Begin()
				tx2.Put([]byte("recent"), []byte("also"))
				tx2.Commit(p)
				// Uncommitted.
				tx3 := sys.Store.Begin()
				tx3.Put([]byte("dirty"), []byte("no"))

				fresh, _, err := sys.Crash(p)
				if err != nil {
					t.Fatalf("crash: %v", err)
				}
				if got, err := fresh.Store.Get(p, []byte("stable")); err != nil || string(got) != "yes" {
					t.Fatalf("stable: %q %v", got, err)
				}
				if got, err := fresh.Store.Get(p, []byte("recent")); err != nil || string(got) != "also" {
					t.Fatalf("recent: %q %v", got, err)
				}
				if _, err := fresh.Store.Get(p, []byte("dirty")); !errors.Is(err, ErrNotFound) {
					t.Fatalf("uncommitted survived: %v", err)
				}
				if fresh.Store.Recoveries == 0 && fresh.Store.WAL().Commits == 0 {
					t.Log("note: recovery path had nothing to replay")
				}
			})
		})
	}
}

func TestCrashDuringHeavyTrafficThenRecover(t *testing.T) {
	withSystem(t, true, func(p *sim.Proc, sys *System) {
		model := map[string]string{}
		for i := 0; i < 120; i++ {
			tx := sys.Store.Begin()
			k := fmt.Sprintf("k%03d", i%40)
			v := fmt.Sprintf("v%d", i)
			tx.Put([]byte(k), []byte(v))
			if i%7 == 6 {
				dk := fmt.Sprintf("k%03d", (i+13)%40)
				tx.Delete([]byte(dk))
				delete(model, dk)
				if dk == k {
					// Delete after put in the same txn: delete wins.
					if err := tx.Commit(p); err != nil {
						t.Fatalf("commit: %v", err)
					}
					continue
				}
			}
			model[k] = v
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		fresh, _, err := sys.Crash(p)
		if err != nil {
			t.Fatalf("crash: %v", err)
		}
		for k, v := range model {
			got, err := fresh.Store.Get(p, []byte(k))
			if err != nil || string(got) != v {
				t.Fatalf("%s = %q (%v), want %q", k, got, err, v)
			}
		}
	})
}

// A store its System reopened is closed: reads, commits and batch
// hand-offs all fail with ErrClosed.
func TestCloseThenUseFails(t *testing.T) {
	withSystem(t, false, func(p *sim.Proc, sys *System) {
		old := sys.Store
		if _, err := sys.Reopen(p); err != nil {
			t.Fatal(err)
		}
		if _, err := old.Get(p, []byte("x")); !errors.Is(err, ErrClosed) {
			t.Fatalf("get after close: %v", err)
		}
		tx := old.Begin()
		tx.Put([]byte("x"), []byte("y"))
		if err := tx.Commit(p); !errors.Is(err, ErrClosed) {
			t.Fatalf("commit after close: %v", err)
		}
		if err := old.ApplyBatchAsync(p, []BatchOp{{Key: []byte("k"), Value: []byte("v")}}, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("batch after close: %v", err)
		}
	})
}

func TestConcurrentClients(t *testing.T) {
	eng := sim.NewEngine()
	var sys *System
	ready := sim.NewCond(eng)
	eng.Go(func(p *sim.Proc) {
		flash := buildFlash(t, eng)
		var err error
		sys, err = BuildProgressive(p, eng, flash, buildMemBus(t, eng), 1<<20, 4, Config{CheckpointBytes: 16 << 10})
		if err != nil {
			t.Errorf("build: %v", err)
		}
		ready.Fire()
	})
	const clients = 8
	total := 0
	for c := 0; c < clients; c++ {
		c := c
		eng.Go(func(p *sim.Proc) {
			ready.Await(p)
			for i := 0; i < 30; i++ {
				tx := sys.Store.Begin()
				tx.Put([]byte(fmt.Sprintf("c%dk%d", c, i)), []byte(fmt.Sprintf("v%d", i)))
				if err := tx.Commit(p); err != nil {
					t.Errorf("client %d commit %d: %v", c, i, err)
					return
				}
				total++
			}
		})
	}
	eng.Run()
	if total != clients*30 {
		t.Fatalf("total commits = %d", total)
	}
	// Verify all data in one last proc.
	eng.Go(func(p *sim.Proc) {
		for c := 0; c < clients; c++ {
			for i := 0; i < 30; i++ {
				got, err := sys.Store.Get(p, []byte(fmt.Sprintf("c%dk%d", c, i)))
				if err != nil || string(got) != fmt.Sprintf("v%d", i) {
					t.Errorf("c%dk%d: %q %v", c, i, got, err)
					return
				}
			}
		}
	})
	eng.Run()
}

// Property: a random op sequence with interleaved checkpoints and one
// crash behaves like a map of the committed prefix.
func TestPropertyKVStoreMatchesModelAcrossCrash(t *testing.T) {
	f := func(ops []uint16, crashAtRaw uint8) bool {
		eng := sim.NewEngine()
		okResult := true
		eng.Go(func(p *sim.Proc) {
			flash := buildFlash(t, eng)
			sys, err := BuildProgressive(p, eng, flash, buildMemBus(t, eng), 1<<20, 2, Config{CheckpointBytes: 4 << 10})
			if err != nil {
				okResult = false
				return
			}
			model := map[string]string{}
			crashAt := int(crashAtRaw)
			for i, op := range ops {
				k := fmt.Sprintf("k%02d", op%24)
				tx := sys.Store.Begin()
				if op%6 == 5 {
					tx.Delete([]byte(k))
					if err := tx.Commit(p); err != nil {
						okResult = false
						return
					}
					delete(model, k)
				} else {
					v := fmt.Sprintf("v%04d", op)
					tx.Put([]byte(k), []byte(v))
					if err := tx.Commit(p); err != nil {
						okResult = false
						return
					}
					model[k] = v
				}
				if i == crashAt {
					sys, _, err = sys.Crash(p)
					if err != nil {
						okResult = false
						return
					}
				}
			}
			for k, v := range model {
				got, err := sys.Store.Get(p, []byte(k))
				if err != nil || string(got) != v {
					okResult = false
					return
				}
			}
		})
		eng.Run()
		return okResult
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestLogFullForcesCheckpoint(t *testing.T) {
	// A tiny WAL and a huge checkpoint threshold: commits must survive
	// log exhaustion by forcing checkpoints that truncate the log.
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		flash := buildFlash(t, eng)
		mb := buildMemBus(t, eng)
		sys, err := BuildProgressive(p, eng, flash, mb, 4<<10 /* 4 KiB log */, 1,
			Config{CheckpointBytes: 1 << 30})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		for i := 0; i < 300; i++ {
			tx := sys.Store.Begin()
			tx.Put([]byte(fmt.Sprintf("k%03d", i%50)), bytes.Repeat([]byte{byte(i)}, 64))
			if err := tx.Commit(p); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
		if sys.Store.Checkpoints == 0 {
			t.Fatal("log exhaustion never forced a checkpoint")
		}
		// All newest values must survive, including across a crash.
		fresh, _, err := sys.Crash(p)
		if err != nil {
			t.Fatalf("crash: %v", err)
		}
		for i := 250; i < 300; i++ {
			k := fmt.Sprintf("k%03d", i%50)
			got, err := fresh.Store.Get(p, []byte(k))
			if err != nil || got[0] != byte(i) {
				t.Fatalf("%s = %v (%v), want fill %d", k, got, err, byte(i))
			}
		}
	})
	eng.Run()
}

// A meta slot that cannot be read is not a torn slot: reopening on a
// dead device must fail, not come back as an empty store (or silently
// on the older generation, whose pages may have been recycled since).
func TestReopenOnDeadDeviceFails(t *testing.T) {
	for _, prog := range []bool{false, true} {
		prog := prog
		t.Run(fmt.Sprintf("progressive=%v", prog), func(t *testing.T) {
			withSystem(t, prog, func(p *sim.Proc, sys *System) {
				tx := sys.Store.Begin()
				tx.Put([]byte("stable"), []byte("yes"))
				if err := tx.Commit(p); err != nil {
					t.Fatalf("commit: %v", err)
				}
				if err := sys.Store.Checkpoint(p); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
				sys.at.stack.Device().(*ssd.Device).Kill()
				fresh, err := sys.Reopen(p)
				if !errors.Is(err, ssd.ErrDeviceDead) {
					t.Fatalf("reopen on a dead device: system %v, err %v; want ErrDeviceDead", fresh != nil, err)
				}
			})
		})
	}
}

// FuzzDecodeMeta feeds arbitrary slot bytes to the meta decoder recovery
// trusts (the FuzzWALDecode pattern). It must never panic; a slot it
// accepts must carry the magic and a valid checksum and be exactly what
// encode writes for the fields it decoded; and no single-byte
// corruption of an accepted slot may be accepted in its place.
func FuzzDecodeMeta(f *testing.F) {
	for _, m := range []meta{
		{},
		{ver: 1, root: 2, height: 1, nextPage: 3, replayLSN: 4096},
		{ver: 1 << 63, root: -1, height: -7, nextPage: 1 << 40, replayLSN: -1},
	} {
		slot := m.encode(make([]byte, metaSize))
		f.Add(slot, byte(0x01))
		f.Add(m.encode(make([]byte, 4096)), byte(0x80))
		f.Add(slot[:metaSize-1], byte(0xFF))
	}
	f.Add(make([]byte, metaSize), byte(0x01))
	f.Fuzz(func(t *testing.T, data []byte, flip byte) {
		m, ok := decodeMeta(data)
		if !ok {
			return
		}
		if binary.LittleEndian.Uint32(data) != metaMagic ||
			crc32.ChecksumIEEE(data[:44]) != binary.LittleEndian.Uint32(data[44:]) {
			t.Fatalf("accepted a slot without the magic and a valid checksum: %x", data[:metaSize])
		}
		if again := m.encode(make([]byte, metaSize)); !bytes.Equal(again, data[:metaSize]) {
			t.Fatalf("accepted slot re-encodes differently:\n got  %x\n from %x", again, data[:metaSize])
		}
		if flip == 0 {
			flip = 0xFF
		}
		bad := append([]byte(nil), data[:metaSize]...)
		for i := range bad {
			bad[i] ^= flip
			if _, ok := decodeMeta(bad); ok {
				t.Fatalf("byte %d ^ %#x of a valid slot went undetected", i, flip)
			}
			bad[i] ^= flip
		}
	})
}
