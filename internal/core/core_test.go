package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/pcm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// buildFlash makes a small safe-buffered enterprise device.
func buildFlash(t *testing.T, eng *sim.Engine) *ssd.Device {
	t.Helper()
	d, err := ssd.Build(eng, ssd.Enterprise2012, ssd.Options{
		Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 32, PagesPerBlock: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d.(*ssd.Device)
}

// blockParts lays the conservative parts over flash behind a
// single-queue stack: a log in its first logPages pages and a page
// store over the rest.
func blockParts(t *testing.T, eng *sim.Engine, flash *ssd.Device, logPages int64, cpus int) (*BlockLog, *StackPages) {
	t.Helper()
	cfg := blockdev.DefaultConfig(blockdev.SingleQueue)
	cfg.CPUs = cpus
	stack, err := blockdev.New(eng, flash, cfg)
	if err != nil {
		t.Fatal(err)
	}
	log, err := NewBlockLog(stack, 0, logPages)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := NewStackPagesRegion(stack, logPages, flash.Capacity()-logPages)
	if err != nil {
		t.Fatal(err)
	}
	return log, pages
}

// directPages exposes the whole of flash behind a direct-path stack,
// the way the paper's stack carries its tree pages.
func directPages(t *testing.T, eng *sim.Engine, flash *ssd.Device, cpus int) *StackPages {
	t.Helper()
	cfg := blockdev.DefaultConfig(blockdev.Direct)
	cfg.CPUs = cpus
	stack, err := blockdev.New(eng, flash, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := NewStackPagesRegion(stack, 0, flash.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

func buildMemBus(t *testing.T, eng *sim.Engine) *pcm.MemBus {
	t.Helper()
	cfg := pcm.DefaultConfig()
	cfg.CapacityBytes = 1 << 22
	dev, err := pcm.New(eng, "pcm0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pcm.NewMemBus(eng, dev)
}

func TestPCMLogAppendSyncRead(t *testing.T) {
	eng := sim.NewEngine()
	mb := buildMemBus(t, eng)
	log, err := NewPCMLog(mb, 0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go(func(p *sim.Proc) {
		off1, err := log.Append(p, []byte("hello "))
		if err != nil {
			t.Errorf("append: %v", err)
		}
		off2, _ := log.Append(p, []byte("world"))
		if off1 != 0 || off2 != 6 {
			t.Errorf("offsets %d,%d", off1, off2)
		}
		if err := log.Sync(p); err != nil {
			t.Errorf("sync: %v", err)
		}
		got, err := log.ReadAt(p, 0, 11)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if string(got) != "hello world" {
			t.Errorf("got %q", got)
		}
	})
	eng.Run()
}

func TestPCMLogWrapsAround(t *testing.T) {
	eng := sim.NewEngine()
	mb := buildMemBus(t, eng)
	log, err := NewPCMLog(mb, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go(func(p *sim.Proc) {
		// Fill 48 bytes, truncate 32, append 40 (wraps).
		if _, err := log.Append(p, bytes.Repeat([]byte{1}, 48)); err != nil {
			t.Fatalf("fill: %v", err)
		}
		if err := log.Truncate(32); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		payload := bytes.Repeat([]byte{7}, 40)
		off, err := log.Append(p, payload)
		if err != nil {
			t.Fatalf("wrap append: %v", err)
		}
		got, err := log.ReadAt(p, off, 40)
		if err != nil {
			t.Fatalf("wrap read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("wrapped data corrupted")
		}
	})
	eng.Run()
}

func TestPCMLogFullRejected(t *testing.T) {
	eng := sim.NewEngine()
	mb := buildMemBus(t, eng)
	log, _ := NewPCMLog(mb, 0, 16)
	eng.Go(func(p *sim.Proc) {
		if _, err := log.Append(p, make([]byte, 17)); !errors.Is(err, ErrLogFull) {
			t.Errorf("err = %v, want ErrLogFull", err)
		}
	})
	eng.Run()
}

func TestPCMLogSyncCheapVsBlockLogSync(t *testing.T) {
	// The §3 principle 1 claim in miniature: a commit-sized append+sync
	// on PCM must be orders of magnitude faster than on the block path.
	eng := sim.NewEngine()
	mb := buildMemBus(t, eng)
	plog, _ := NewPCMLog(mb, 0, 1<<16)
	var pcmDur sim.Time
	eng.Go(func(p *sim.Proc) {
		start := p.Now()
		plog.Append(p, make([]byte, 128))
		plog.Sync(p)
		pcmDur = p.Now() - start
	})
	eng.Run()

	eng2 := sim.NewEngine()
	blog, _ := blockParts(t, eng2, buildFlash(t, eng2), 16, 1)
	var blockDur sim.Time
	eng2.Go(func(p *sim.Proc) {
		start := p.Now()
		if _, err := blog.Append(p, make([]byte, 128)); err != nil {
			t.Errorf("append: %v", err)
		}
		if err := blog.Sync(p); err != nil {
			t.Errorf("sync: %v", err)
		}
		blockDur = p.Now() - start
	})
	eng2.Run()
	if pcmDur*20 > blockDur {
		t.Fatalf("PCM commit %v vs block commit %v: want >=20x gap", pcmDur, blockDur)
	}
}

func TestBlockLogRoundTripAndRecoveryRead(t *testing.T) {
	eng := sim.NewEngine()
	flash := buildFlash(t, eng)
	log, _ := blockParts(t, eng, flash, 16, 1)
	eng.Go(func(p *sim.Proc) {
		var recs [][]byte
		for i := 0; i < 20; i++ {
			recs = append(recs, bytes.Repeat([]byte{byte(i + 1)}, 100+i))
		}
		var offs []int64
		for _, r := range recs {
			off, err := log.Append(p, r)
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			offs = append(offs, off)
		}
		if err := log.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
		for i, r := range recs {
			got, err := log.ReadAt(p, offs[i], len(r))
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if !bytes.Equal(got, r) {
				t.Fatalf("record %d corrupted", i)
			}
		}
	})
	eng.Run()
}

// TestBlockLogSyncLeavesLaterAppendsDirty: bytes appended while a Sync
// runs — the log writer's next batch — stay dirty for the next Sync,
// even when they cross page boundaries: after two Syncs the device holds
// every byte (a Sync that marked clean everything up to the tail's page
// as of its *end* skipped the pages in between).
func TestBlockLogSyncLeavesLaterAppendsDirty(t *testing.T) {
	eng := sim.NewEngine()
	flash := buildFlash(t, eng)
	log, _ := blockParts(t, eng, flash, 16, 1)
	ps := flash.PageSize()
	want := bytes.Repeat([]byte{0xA1}, 100)
	eng.Go(func(p *sim.Proc) {
		if _, err := log.Append(p, want); err != nil {
			t.Fatalf("append: %v", err)
		}
		late := make([]byte, 2*ps)
		for i := range late {
			late[i] = byte(i%251 + 1)
		}
		p.Engine().Go(func(p *sim.Proc) {
			p.Sleep(sim.Microsecond) // the first Sync is in flight
			if _, err := log.Append(p, late); err != nil {
				t.Errorf("late append: %v", err)
			}
		})
		if err := log.Sync(p); err != nil {
			t.Fatalf("sync: %v", err)
		}
		want = append(want, late...)
		if err := log.Sync(p); err != nil {
			t.Fatalf("second sync: %v", err)
		}
		got, err := log.RawReadAt(p, 0, len(want))
		if err != nil {
			t.Fatalf("raw read: %v", err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("device byte %d (page %d) = %#x after both syncs, want %#x", i, i/ps, got[i], want[i])
			}
		}
	})
	eng.Run()
}

func TestBlockLogTruncateTrims(t *testing.T) {
	eng := sim.NewEngine()
	flash := buildFlash(t, eng)
	log, _ := blockParts(t, eng, flash, 16, 1)
	ps := int64(flash.PageSize())
	before := flash.FTL().Stats().HostTrims
	eng.Go(func(p *sim.Proc) {
		log.Append(p, make([]byte, 3*ps))
		log.Sync(p)
		if err := log.Truncate(2 * ps); err != nil {
			t.Errorf("truncate: %v", err)
		}
	})
	eng.Run()
	if flash.FTL().Stats().HostTrims != before+2 {
		t.Fatalf("expected 2 trims, got %d", flash.FTL().Stats().HostTrims-before)
	}
}

func TestStackPagesRoundTripAndOffset(t *testing.T) {
	eng := sim.NewEngine()
	flash := buildFlash(t, eng)
	log, pgs := blockParts(t, eng, flash, 16, 2)
	if pgs.Capacity() != flash.Capacity()-16 {
		t.Fatalf("offset capacity wrong: %d", pgs.Capacity())
	}
	eng.Go(func(p *sim.Proc) {
		data := bytes.Repeat([]byte{0xAB}, pgs.PageSize())
		if err := pgs.WritePage(p, 0, data); err != nil {
			t.Errorf("write: %v", err)
		}
		got, err := pgs.ReadPage(p, 0)
		if err != nil || got[0] != 0xAB {
			t.Errorf("read: %v %v", got, err)
		}
		// Page 0 of the data region must not collide with the log region.
		if err := log.Sync(p); err != nil {
			t.Errorf("log sync: %v", err)
		}
		if err := pgs.Trim(0); err != nil {
			t.Errorf("trim: %v", err)
		}
		if err := pgs.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
		}
		if _, err := pgs.ReadPage(p, pgs.Capacity()); err == nil {
			t.Error("out-of-range read accepted")
		}
	})
	eng.Run()
}

func TestStackPagesAsyncWrite(t *testing.T) {
	eng := sim.NewEngine()
	_, pages := blockParts(t, eng, buildFlash(t, eng), 16, 2)
	acked := 0
	for i := int64(0); i < 8; i++ {
		pages.WritePageAsync(i, nil, func(err error) {
			if err != nil {
				t.Errorf("async write: %v", err)
			}
			acked++
		})
	}
	eng.Run()
	if acked != 8 {
		t.Fatalf("acked = %d", acked)
	}
}

// TestProgressiveAssembly wires the paper's parts over one device the
// way kvstore's progressive builders do — a PCM log, pages on the direct
// path — beside nameless objects on the same device.
func TestProgressiveAssembly(t *testing.T) {
	eng := sim.NewEngine()
	flash := buildFlash(t, eng)
	log, err := NewPCMLog(buildMemBus(t, eng), 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pages := directPages(t, eng, flash, 2)
	if _, err := NewObjectStore(flash); err != nil {
		t.Fatalf("page-mapped device lacks nameless objects: %v", err)
	}
	eng.Go(func(p *sim.Proc) {
		if _, err := log.Append(p, []byte("commit")); err != nil {
			t.Errorf("log: %v", err)
		}
		log.Sync(p)
		if err := pages.WritePage(p, 3, nil); err != nil {
			t.Errorf("page: %v", err)
		}
	})
	eng.Run()
}

func TestObjectStorePutGetUpdateDelete(t *testing.T) {
	eng := sim.NewEngine()
	flash := buildFlash(t, eng)
	obj, err := NewObjectStore(flash)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go(func(p *sim.Proc) {
		a := bytes.Repeat([]byte{1}, flash.PageSize())
		b := bytes.Repeat([]byte{2}, flash.PageSize())
		tok, err := obj.Put(p, a)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		got, err := obj.Get(p, tok)
		if err != nil || got[0] != 1 {
			t.Fatalf("get: %v %v", got, err)
		}
		if err := obj.Update(p, tok, b); err != nil {
			t.Fatalf("update: %v", err)
		}
		got, err = obj.Get(p, tok)
		if err != nil || got[0] != 2 {
			t.Fatalf("get after update: %v %v", got, err)
		}
		if len(obj.byToken) != 1 {
			t.Fatalf("live = %d", len(obj.byToken))
		}
		if _, err := obj.Get(p, tok+1); !errors.Is(err, ErrBadToken) {
			t.Fatalf("get of an unknown token: %v", err)
		}
	})
	eng.Run()
}

func TestObjectStoreSurvivesGCRelocation(t *testing.T) {
	eng := sim.NewEngine()
	// Tiny device to force GC quickly.
	d, err := ssd.Build(eng, ssd.Enterprise2012, ssd.Options{
		Channels: 1, ChipsPerChannel: 2, BlocksPerPlane: 8, PagesPerBlock: 4,
		BufferPages: -1, OverProvision: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	flash := d.(*ssd.Device)
	obj, err := NewObjectStore(flash)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go(func(p *sim.Proc) {
		data := bytes.Repeat([]byte{0x77}, flash.PageSize())
		tok, err := obj.Put(p, data)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		// Churn logical pages to force GC around the object.
		n := flash.Capacity()
		for round := 0; round < 30; round++ {
			for l := int64(0); l < n*3/4; l++ {
				if err := flash.FTL().(interface {
					Trim(int64) error
				}).Trim(l); err != nil {
					t.Fatalf("trim: %v", err)
				}
				c := sim.NewCond(eng)
				flash.Write(l, nil, func(error) { c.Fire() })
				c.Await(p)
			}
		}
		got, err := obj.Get(p, tok)
		if err != nil {
			t.Fatalf("get after churn: %v", err)
		}
		if got[0] != 0x77 {
			t.Fatal("object corrupted by GC")
		}
	})
	eng.Run()
	if obj.Relocations == 0 {
		t.Fatal("object never relocated despite churn; test not exercising the peer protocol")
	}
}

func TestAtomicWriteHelper(t *testing.T) {
	eng := sim.NewEngine()
	flash := buildFlash(t, eng)
	eng.Go(func(p *sim.Proc) {
		pages := [][]byte{
			bytes.Repeat([]byte{5}, flash.PageSize()),
			bytes.Repeat([]byte{6}, flash.PageSize()),
		}
		if err := AtomicWrite(p, flash, []int64{10, 11}, pages); err != nil {
			t.Fatalf("atomic: %v", err)
		}
	})
	eng.Run()
}

// TestAttachSchedulerOnDirectPath wires a tenant scheduler into the
// paper's async domain — the Direct-mode stack under its page store, attached the way serve does it: page traffic is charged
// to the tenant and the device's GC notifications reach the scheduler.
func TestAttachSchedulerOnDirectPath(t *testing.T) {
	eng := sim.NewEngine()
	flash := buildFlash(t, eng)
	pages := directPages(t, eng, flash, 2)
	sc := sched.New(eng, sched.DefaultConfig())
	tenant := sc.AddTenant("engine", sched.LatencySensitive, 4)
	pages.stack.AttachScheduler(sc)
	if err := flash.SetGCNotifier(sc.SetGCActiveChips); err != nil {
		t.Fatal(err)
	}
	pages.SetTenant(tenant)
	eng.Go(func(p *sim.Proc) {
		data := make([]byte, pages.PageSize())
		data[0] = 0x5a
		if err := pages.WritePage(p, 3, data); err != nil {
			t.Errorf("write: %v", err)
		}
		got, err := pages.ReadPage(p, 3)
		if err != nil || got[0] != 0x5a {
			t.Errorf("read back: %v %v", got, err)
		}
	})
	eng.Run()
	if tenant.Dispatched < 2 {
		t.Fatalf("tenant saw %d dispatches, want the page write+read", tenant.Dispatched)
	}
	// The GC notifier is connected but no GC has run on a fresh device.
	if sc.GCActiveChips() != 0 {
		t.Fatalf("no GC ran yet, scheduler sees %d active chips", sc.GCActiveChips())
	}
}
