package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/pcm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// assembly is one of the three builders over a fresh device and memory
// bus, with where its meta slots must land on the device.
type assembly struct {
	name string
	// progressive: the paper's interface (atomic meta, trims); otherwise
	// the block interface (double-write meta, no trims).
	progressive bool
	build       func(p *sim.Proc, eng *sim.Engine, flash *ssd.Device, mb *pcm.MemBus, cfg Config) (*System, error)
	// metaBase is the device page of meta slot 0 on a device of the
	// given capacity.
	metaBase func(capacity int64) int64
}

// The shard assembly sits in the device's upper half, so a region
// offset the builder dropped would show.
const shardLogPages = 16

func shardRegion(capacity int64) ShardRegion {
	return ShardRegion{Base: capacity / 2, Span: capacity / 2, LogPages: shardLogPages}
}

func sharedStack(eng *sim.Engine, flash *ssd.Device) (*blockdev.Stack, error) {
	return blockdev.New(eng, flash, blockdev.DefaultConfig(blockdev.MultiQueue))
}

var assemblies = []assembly{
	{
		name: "BuildConservative",
		build: func(p *sim.Proc, eng *sim.Engine, flash *ssd.Device, _ *pcm.MemBus, cfg Config) (*System, error) {
			return BuildConservative(p, eng, flash, 64, 2, cfg)
		},
		metaBase: func(int64) int64 { return 64 },
	},
	{
		name: "BuildProgressive", progressive: true,
		build: func(p *sim.Proc, eng *sim.Engine, flash *ssd.Device, mb *pcm.MemBus, cfg Config) (*System, error) {
			return BuildProgressive(p, eng, flash, mb, 1<<20, 2, cfg)
		},
		metaBase: func(int64) int64 { return 0 },
	},
	{
		name: "BuildShardConservative",
		build: func(p *sim.Proc, eng *sim.Engine, flash *ssd.Device, _ *pcm.MemBus, cfg Config) (*System, error) {
			stack, err := sharedStack(eng, flash)
			if err != nil {
				return nil, err
			}
			return BuildShardConservative(p, eng, stack, shardRegion(flash.Capacity()), cfg)
		},
		metaBase: func(c int64) int64 { return shardRegion(c).Base + shardLogPages },
	},
}

// readDevice reads one device page below every host layer (nil: the
// device holds no data there — never written, or trimmed).
func readDevice(p *sim.Proc, flash *ssd.Device, lpn int64) ([]byte, error) {
	c := sim.NewCond(p.Engine())
	var data []byte
	var rerr error
	flash.Read(lpn, func(d []byte, err error) {
		data, rerr = d, err
		c.Fire()
	})
	c.Await(p)
	return data, rerr
}

// TestBuildersKeepTheirDiscipline pins what each builder asks of the
// device, before and after Reopen. On the block interface the meta flip
// is a page-store write followed by a flush and no tree page is ever
// trimmed; on the paper's interface the meta flip is one atomic device
// write and every tree page a checkpoint frees is trimmed. Either way
// the newest meta generation sits in its slot at the page region's base.
func TestBuildersKeepTheirDiscipline(t *testing.T) {
	for _, a := range assemblies {
		t.Run(a.name, func(t *testing.T) {
			eng := sim.NewEngine()
			eng.Go(func(p *sim.Proc) {
				flash := buildFlash(t, eng)
				sys, err := a.build(p, eng, flash, buildMemBus(t, eng), Config{CheckpointBytes: 1 << 30})
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				round := 0
				checkpoint := func(when string) {
					round++
					for i := 0; i < 200; i++ {
						tx := sys.Store.Begin()
						tx.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("value %d of round %d", i, round)))
						if err := tx.Commit(p); err != nil {
							t.Fatalf("%s: commit: %v", when, err)
						}
					}
					var labels []string
					flash.Link().SetTap(func(label string, _, _, _ sim.Time) { labels = append(labels, label) })
					err := sys.Store.Checkpoint(p)
					flash.Link().SetTap(nil)
					if err != nil {
						t.Fatalf("%s: checkpoint: %v", when, err)
					}
					atomics := 0
					for _, l := range labels {
						if l == "atomic-xfer" {
							atomics++
						}
					}
					n := len(labels)
					if a.progressive && (atomics != 1 || labels[n-1] != "atomic-xfer") {
						t.Errorf("%s: checkpoint sent %v; want the meta flip as its one atomic write, last", when, labels)
					}
					if !a.progressive && (atomics != 0 || n < 2 || labels[n-2] != "write-xfer" || labels[n-1] != "flush-cmd") {
						t.Errorf("%s: checkpoint sent %v; want no atomic write and the meta page write then a flush last", when, labels)
					}

					s := sys.Store
					slot := a.metaBase(flash.Capacity()) + int64(s.metaVer%metaPages)
					data, err := readDevice(p, flash, slot)
					if err != nil {
						t.Fatalf("%s: read meta slot: %v", when, err)
					}
					if m, ok := decodeMeta(data); !ok || m.ver != s.metaVer {
						t.Errorf("%s: device page %d holds meta %+v (ok=%v), want generation %d", when, slot, m, ok, s.metaVer)
					}
					if round > 1 && len(s.freePages) == 0 {
						t.Fatalf("%s: no tree page freed by a rewrite", when)
					}
					for _, id := range s.freePages {
						data, err := readDevice(p, flash, a.metaBase(flash.Capacity())+id)
						if err != nil {
							t.Fatalf("%s: read freed page %d: %v", when, id, err)
						}
						if trimmed := data == nil; trimmed != a.progressive {
							t.Errorf("%s: freed tree page %d trimmed=%v, want %v", when, id, trimmed, a.progressive)
						}
					}
				}
				checkpoint("first checkpoint")
				checkpoint("second checkpoint")
				if sys, err = sys.Reopen(p); err != nil {
					t.Fatalf("reopen: %v", err)
				}
				checkpoint("after reopen")
			})
			eng.Run()
		})
	}
}

// TestProgressiveBuildRefusesUnsafeBuffer: the paper's assembly flips
// meta with an atomic write, which only a device with a safe write
// buffer accepts. On any other device the progressive builder must
// fail at build time, not open, ack commits and wedge at the first
// checkpoint.
func TestProgressiveBuildRefusesUnsafeBuffer(t *testing.T) {
	small := ssd.Options{Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 64, PagesPerBlock: 16}
	volatile := small
	volatile.BufferVolatile = true
	devices := []struct {
		name   string
		preset ssd.Preset
		opts   ssd.Options
	}{
		{"unbuffered", ssd.Enterprise2012Unbuffered, small},
		{"volatile buffer", ssd.Enterprise2012, volatile},
	}
	for _, d := range devices {
		for _, a := range assemblies {
			if !a.progressive {
				continue
			}
			t.Run(d.name+"/"+a.name, func(t *testing.T) {
				eng := sim.NewEngine()
				eng.Go(func(p *sim.Proc) {
					built, err := ssd.Build(eng, d.preset, d.opts)
					if err != nil {
						t.Fatal(err)
					}
					sys, err := a.build(p, eng, built.(*ssd.Device), buildMemBus(t, eng), Config{})
					if !errors.Is(err, ssd.ErrAtomicUnsupported) {
						t.Errorf("build: system %v, err %v; want ErrAtomicUnsupported", sys != nil, err)
					}
				})
				eng.Run()
			})
		}
	}
}

// TestBuildRejectsBadRegions: every builder refuses a layout that does
// not fit its device or bus, or leaves the block log no room (or all of
// it) in its region.
func TestBuildRejectsBadRegions(t *testing.T) {
	type buildFn func(p *sim.Proc, eng *sim.Engine, flash *ssd.Device, stack *blockdev.Stack, mb *pcm.MemBus) (*System, error)
	shard := func(edit func(r *ShardRegion, capacity int64)) buildFn {
		return func(p *sim.Proc, eng *sim.Engine, flash *ssd.Device, stack *blockdev.Stack, _ *pcm.MemBus) (*System, error) {
			r := shardRegion(flash.Capacity())
			edit(&r, flash.Capacity())
			return BuildShardConservative(p, eng, stack, r, Config{})
		}
	}
	cases := []struct {
		name  string
		build buildFn
	}{
		{"whole device, no log pages", func(p *sim.Proc, eng *sim.Engine, flash *ssd.Device, _ *blockdev.Stack, _ *pcm.MemBus) (*System, error) {
			return BuildConservative(p, eng, flash, 0, 1, Config{})
		}},
		{"whole device, log covers the device", func(p *sim.Proc, eng *sim.Engine, flash *ssd.Device, _ *blockdev.Stack, _ *pcm.MemBus) (*System, error) {
			return BuildConservative(p, eng, flash, flash.Capacity(), 1, Config{})
		}},
		{"whole device, no log bytes", func(p *sim.Proc, eng *sim.Engine, flash *ssd.Device, _ *blockdev.Stack, mb *pcm.MemBus) (*System, error) {
			return BuildProgressive(p, eng, flash, mb, 0, 1, Config{})
		}},
		{"whole device, log past the bus", func(p *sim.Proc, eng *sim.Engine, flash *ssd.Device, _ *blockdev.Stack, mb *pcm.MemBus) (*System, error) {
			return BuildProgressive(p, eng, flash, mb, 1<<23, 1, Config{})
		}},
		{"shard, no log pages", shard(func(r *ShardRegion, _ int64) { r.LogPages = 0 })},
		{"shard, log covers the span", shard(func(r *ShardRegion, _ int64) { r.LogPages = r.Span })},
		{"shard, region past the device", shard(func(r *ShardRegion, c int64) { r.Base = c - r.Span/2 })},
		{"shard, negative base", shard(func(r *ShardRegion, _ int64) { r.Base = -1 })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			eng.Go(func(p *sim.Proc) {
				flash := buildFlash(t, eng)
				stack, err := sharedStack(eng, flash)
				if err != nil {
					t.Fatal(err)
				}
				if sys, err := c.build(p, eng, flash, stack, buildMemBus(t, eng)); err == nil {
					t.Errorf("built a store (%v) on a bad layout", sys != nil)
				}
			})
			eng.Run()
		})
	}
}

// TestShardIOReachesItsTenant pins which scheduler tenant each of a
// shard's I/O kinds queues at: a commit's log I/O and a get's page read
// at the region's Tenant, a checkpoint's page writes and its meta write
// at its Background tenant, and flushes at neither.
//
// A shard is always built conservative; the subtest keeps that name.
func TestShardIOReachesItsTenant(t *testing.T) {
	t.Run("progressive=false", testShardIOReachesItsTenant)
}

func testShardIOReachesItsTenant(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go(func(p *sim.Proc) {
		flash := buildFlash(t, eng)
		stack, err := sharedStack(eng, flash)
		if err != nil {
			t.Fatal(err)
		}
		sc := sched.New(eng, sched.DefaultConfig())
		stack.AttachScheduler(sc)
		r := shardRegion(flash.Capacity())
		r.Tenant = sc.AddTenant("shard", sched.LatencySensitive, 1)
		r.Background = sc.AddTenant("shard.bg", sched.Throughput, 1)
		sys, err := BuildShardConservative(p, eng, stack, r, Config{CacheFrames: 1, CheckpointBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		fg, bg := r.Tenant, r.Background
		step := func(what string, fn func() error) (dfg, dbg int64) {
			f0, b0 := fg.Enqueued, bg.Enqueued
			if err := fn(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			return fg.Enqueued - f0, bg.Enqueued - b0
		}
		dfg, dbg := step("put", func() error {
			for i := range 200 {
				tx := sys.Store.Begin()
				tx.Put([]byte(fmt.Sprintf("key%04d", i)), bytes.Repeat([]byte{byte(i)}, 64))
				if err := tx.Commit(p); err != nil {
					return err
				}
			}
			return nil
		})
		if dfg == 0 || dbg != 0 {
			t.Errorf("puts queued %d foreground and %d background requests; want log I/O foreground only", dfg, dbg)
		}
		_, dbg = step("checkpoint", func() error { return sys.Store.Checkpoint(p) })
		if pages := int64(sys.Store.TreeHeight()); dbg < pages {
			t.Errorf("checkpoint queued %d background requests, want at least its %d-level tree's pages", dbg, pages)
		}
		dfg, dbg = step("get", func() error {
			_, err := sys.Store.Get(p, []byte("key0000"))
			return err
		})
		if dfg == 0 || dbg != 0 {
			t.Errorf("a cache-missing get queued %d foreground and %d background requests; want its page reads foreground", dfg, dbg)
		}
	})
	eng.Run()
}
