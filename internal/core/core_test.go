package core

import (
	"bytes"
	"errors"
	"runtime"
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
		if err := log.Sync(p, nil); err != nil {
			t.Errorf("sync: %v", err)
		}
		got, err := log.RawReadAt(p, 0, 11)
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
		got, err := log.RawReadAt(p, off, 40)
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
		plog.Sync(p, nil)
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
		if err := blog.Sync(p, nil); err != nil {
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
		if err := log.Sync(p, nil); err != nil {
			t.Fatalf("sync: %v", err)
		}
		for i, r := range recs {
			got, err := log.RawReadAt(p, offs[i], len(r))
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
		if err := log.Sync(p, nil); err != nil {
			t.Fatalf("sync: %v", err)
		}
		want = append(want, late...)
		if err := log.Sync(p, nil); err != nil {
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
		log.Sync(p, nil)
		if err := log.Truncate(2 * ps); err != nil {
			t.Errorf("truncate: %v", err)
		}
	})
	eng.Run()
	if flash.FTL().Stats().HostTrims != before+2 {
		t.Fatalf("expected 2 trims, got %d", flash.FTL().Stats().HostTrims-before)
	}
}

// A truncate that drops k synced pages keeps all k buffers, so the
// appends that cross into the next k pages allocate none: each round
// appends k whole pages, syncs them and truncates them away, and the
// measured appends of the later rounds allocate nothing.
func TestBlockLogReusesEveryTruncatedPage(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng := sim.NewEngine()
	flash := buildFlash(t, eng)
	log, _ := blockParts(t, eng, flash, 16, 1)
	const k = 3
	chunk := bytes.Repeat([]byte{0x5A}, k*flash.PageSize())
	var mallocs uint64
	eng.Go(func(p *sim.Proc) {
		var before, after runtime.MemStats
		for round := 0; round < 8; round++ {
			runtime.ReadMemStats(&before)
			if _, err := log.Append(p, chunk); err != nil {
				t.Fatalf("append: %v", err)
			}
			runtime.ReadMemStats(&after)
			if round >= 2 { // the first rounds allocate the k pages and the map's room
				mallocs += after.Mallocs - before.Mallocs
			}
			if err := log.Sync(p, nil); err != nil {
				t.Fatalf("sync: %v", err)
			}
			if err := log.Truncate(log.Tail()); err != nil {
				t.Fatalf("truncate: %v", err)
			}
		}
	})
	eng.Run()
	if mallocs != 0 {
		t.Fatalf("6 rounds of %d page crossings after a truncate of %d pages allocated %d times, want 0", k, k, mallocs)
	}
}

func TestStackPagesRoundTripAndOffset(t *testing.T) {
	eng := sim.NewEngine()
	flash := buildFlash(t, eng)
	log, pgs := blockParts(t, eng, flash, 16, 2)
	if pgs.cap != flash.Capacity()-16 {
		t.Fatalf("offset capacity wrong: %d", pgs.cap)
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
		if err := log.Sync(p, nil); err != nil {
			t.Errorf("log sync: %v", err)
		}
		if err := pgs.Trim(0); err != nil {
			t.Errorf("trim: %v", err)
		}
		if err := pgs.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
		}
		if _, err := pgs.ReadPage(p, pgs.cap); err == nil {
			t.Error("out-of-range read accepted")
		}
	})
	eng.Run()
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
		log.Sync(p, nil)
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
// paper's async domain — the Direct-mode stack under its page store,
// attached the way serve does it: page traffic is charged to the tenant
// and the device's GC notifications reach the scheduler.
func TestAttachSchedulerOnDirectPath(t *testing.T) {
	eng := sim.NewEngine()
	flash := buildFlash(t, eng)
	pages := directPages(t, eng, flash, 2)
	sc := sched.New(eng, sched.DefaultConfig())
	tenant := sc.AddTenant("engine", sched.LatencySensitive, 4)
	pages.stack.AttachScheduler(sc)
	pages.SetTenants(tenant, tenant)
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

// holdDev is a device that acknowledges a write only when the test
// releases it (held) while hold is set, and otherwise after 10µs; a
// flush takes 100µs. It logs every write it is issued, with a copy of
// the payload, and keeps the last acknowledged payload of each page.
type holdDev struct {
	eng   *sim.Engine
	hold  bool
	held  []func()
	log   []devWrite
	pages map[int64][]byte
}

type devWrite struct {
	lpn  int64
	at   sim.Time
	data []byte
}

func (d *holdDev) Name() string                             { return "hold" }
func (d *holdDev) PageSize() int                            { return 512 }
func (d *holdDev) Capacity() int64                          { return 64 }
func (d *holdDev) Trim(int64) error                         { return nil }
func (d *holdDev) Metrics() *ssd.DeviceMetrics              { return &ssd.DeviceMetrics{} }
func (d *holdDev) Flush(done func())                        { d.eng.After(100*sim.Microsecond, done) }
func (d *holdDev) Read(lpn int64, done func([]byte, error)) { done(d.pages[lpn], nil) }

func (d *holdDev) Write(lpn int64, data []byte, done func(error)) {
	data = bytes.Clone(data)
	d.log = append(d.log, devWrite{lpn: lpn, at: d.eng.Now(), data: data})
	ack := func() {
		d.pages[lpn] = data
		done(nil)
	}
	if d.hold {
		d.held = append(d.held, ack)
		return
	}
	d.eng.After(10*sim.Microsecond, ack)
}

// Two syncs of one block log overlap, and the device holds the first
// one's write of the tail page unacknowledged. The second sync, whose
// appends landed in that same page, must issue no write of it until the
// first is acknowledged (the block interface does not order two writes
// of one LBA in flight together), and once both syncs return the page
// holds every byte of both.
func TestOverlappingSyncsWriteTheTailPageInOrder(t *testing.T) {
	eng := sim.NewEngine()
	dev := &holdDev{eng: eng, hold: true, pages: map[int64][]byte{}}
	stack, err := blockdev.New(eng, dev, blockdev.DefaultConfig(blockdev.Direct))
	if err != nil {
		t.Fatal(err)
	}
	log, err := NewBlockLog(stack, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.Repeat([]byte{0xA1}, 100)
	second := bytes.Repeat([]byte{0xB2}, 100)
	var synced [2]sim.Time
	eng.Go(func(p *sim.Proc) {
		log.Append(p, first)
		if err := log.Sync(p, nil); err != nil {
			t.Errorf("first sync: %v", err)
		}
		synced[0] = p.Now()
	})
	eng.Go(func(p *sim.Proc) {
		p.Sleep(20 * sim.Microsecond) // the first sync's write is held
		log.Append(p, second)
		if err := log.Sync(p, nil); err != nil {
			t.Errorf("second sync: %v", err)
		}
		synced[1] = p.Now()
	})
	const release = 500 * sim.Microsecond
	eng.Schedule(release, func() {
		if len(dev.log) != 1 {
			t.Errorf("%d writes issued while the first sync's write of page 0 was unacknowledged, want 1", len(dev.log))
		}
		dev.hold = false
		for _, ack := range dev.held {
			ack()
		}
		dev.held = nil
	})
	eng.Run()
	if len(dev.log) != 2 {
		t.Fatalf("%d writes issued, want one per sync", len(dev.log))
	}
	if w := dev.log[1]; w.lpn != 0 || w.at < release {
		t.Errorf("second write (page %d) issued at %v, want page 0 after the first's ack at %v", w.lpn, w.at, release)
	}
	want := append(first, second...)
	if got := dev.pages[0][:len(want)]; !bytes.Equal(got, want) {
		t.Errorf("page 0 holds %x..., want both syncs' bytes", got[:8])
	}
	if synced[0] == 0 || synced[1] < synced[0] {
		t.Errorf("syncs returned at %v and %v, want both, the second no earlier", synced[0], synced[1])
	}
}
