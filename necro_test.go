package necro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/workload"
)

// TestPublicAPIDeviceRoundTrip exercises the facade end to end: build a
// preset device, write, read, inspect metrics.
func TestPublicAPIDeviceRoundTrip(t *testing.T) {
	eng := NewEngine()
	dev, err := BuildDevice(eng, Enterprise2012, DeviceOptions{
		Channels: 1, ChipsPerChannel: 2, BlocksPerPlane: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, dev.PageSize())
	copy(payload, "hello")
	dev.Write(7, payload, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	eng.Run()
	var got []byte
	dev.Read(7, func(d []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = d
	})
	eng.Run()
	if !bytes.HasPrefix(got, []byte("hello")) {
		t.Fatal("round trip failed through public API")
	}
	if dev.Metrics().Writes.Ops != 1 {
		t.Fatal("metrics not visible through public API")
	}
}

// TestPublicAPIAllPresetsBuild ensures every exported preset builds.
func TestPublicAPIAllPresetsBuild(t *testing.T) {
	for _, p := range []DevicePreset{Consumer2008, Enterprise2012, ssd.Enterprise2012Unbuffered, ssd.DFTL2012, PCM2012} {
		eng := NewEngine()
		if _, err := BuildDevice(eng, p, DeviceOptions{Channels: 1, ChipsPerChannel: 1, BlocksPerPlane: 32}); err != nil {
			t.Errorf("BuildDevice(%v): %v", p, err)
		}
	}
}

// TestPublicAPIKVAcrossBothStacks runs the engine through the facade on
// both assemblies and crashes it.
func TestPublicAPIKVAcrossBothStacks(t *testing.T) {
	for _, progressive := range []bool{false, true} {
		progressive := progressive
		t.Run(fmt.Sprintf("progressive=%v", progressive), func(t *testing.T) {
			eng := NewEngine()
			eng.Go(func(p *Proc) {
				d, err := BuildDevice(eng, Enterprise2012, DeviceOptions{
					Channels: 1, ChipsPerChannel: 2, BlocksPerPlane: 64,
				})
				if err != nil {
					t.Error(err)
					return
				}
				flash := d.(*FlashDevice)
				var sys *KVSystem
				if progressive {
					mb, err := NewMemBus(eng, "pcm", DefaultPCMConfig())
					if err != nil {
						t.Error(err)
						return
					}
					sys, err = BuildProgressiveKV(p, eng, flash, mb, 1<<20, 1, KVConfig{})
					if err != nil {
						t.Error(err)
						return
					}
				} else {
					var err error
					sys, err = BuildConservativeKV(p, eng, flash, 64, 1, KVConfig{})
					if err != nil {
						t.Error(err)
						return
					}
				}
				tx := sys.Store.Begin()
				tx.Put([]byte("k"), []byte("v"))
				if err := tx.Commit(p); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				fresh, _, err := sys.Crash(p)
				if err != nil {
					t.Errorf("crash: %v", err)
					return
				}
				got, err := fresh.Store.Get(p, []byte("k"))
				if err != nil || string(got) != "v" {
					t.Errorf("after crash: %q %v", got, err)
				}
			})
			eng.Run()
		})
	}
}

// TestPublicAPIStackModes drives the three stack modes via the facade.
func TestPublicAPIStackModes(t *testing.T) {
	for _, mode := range []blockdev.Mode{blockdev.SingleQueue, blockdev.MultiQueue, blockdev.Direct} {
		eng := NewEngine()
		dev, err := BuildDevice(eng, PCM2012, DeviceOptions{Channels: 2})
		if err != nil {
			t.Fatal(err)
		}
		stack, err := blockdev.New(eng, dev, blockdev.DefaultConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		ok := false
		eng.Go(func(p *Proc) {
			if err := stack.WriteSyncAs(p, nil, 0, 1, nil); err != nil {
				t.Errorf("%v write: %v", mode, err)
				return
			}
			if _, err := stack.ReadSync(p, 0, 1); err != nil {
				t.Errorf("%v read: %v", mode, err)
				return
			}
			ok = true
		})
		eng.Run()
		if !ok {
			t.Fatalf("mode %v did not complete", mode)
		}
	}
}

// TestPublicAPIWorkloadsAndExperiments sanity-checks the remaining
// exports.
func TestPublicAPIWorkloadsAndExperiments(t *testing.T) {
	g, err := workload.NewGenerator(workload.RW, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a := g.Next(); a.LPN < 0 || a.LPN >= 100 {
		t.Fatal("workload out of range")
	}
	if len(experiments.All) != 24 {
		t.Fatalf("experiments.All = %d entries, want 24", len(experiments.All))
	}
	rng := sim.NewRNG(1)
	if rng.Intn(10) < 0 {
		t.Fatal("rng broken")
	}
	if experiments.Quick == experiments.Full {
		t.Fatal("scales must differ")
	}
	plan := faults.RandomPlan(7, faults.PlanConfig{Devices: 2, Injections: 3, MaxKills: 1})
	if len(plan) != 3 {
		t.Fatalf("fault plan has %d injections, want 3", len(plan))
	}
	if faults.KillDevice.String() != "kill-device" {
		t.Fatalf("fault kind name = %q", faults.KillDevice.String())
	}
}

// TestPublicAPIProgressiveStoreObjects exercises nameless objects and a
// PCM log beside them on a facade-built device and memory bus.
func TestPublicAPIProgressiveStoreObjects(t *testing.T) {
	eng := NewEngine()
	d, err := BuildDevice(eng, Enterprise2012, DeviceOptions{Channels: 1, ChipsPerChannel: 2, BlocksPerPlane: 32})
	if err != nil {
		t.Fatal(err)
	}
	flash := d.(*FlashDevice)
	mb, err := NewMemBus(eng, "pcm", DefaultPCMConfig())
	if err != nil {
		t.Fatal(err)
	}
	objects, err := core.NewObjectStore(flash)
	if err != nil {
		t.Fatalf("device lacks objects: %v", err)
	}
	log, err := core.NewPCMLog(mb, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	eng.Go(func(p *Proc) {
		data := make([]byte, flash.PageSize())
		data[0] = 0x5C
		tok, err := objects.Put(p, data)
		if err != nil {
			t.Errorf("put: %v", err)
			return
		}
		got, err := objects.Get(p, tok)
		if err != nil || got[0] != 0x5C {
			t.Errorf("get: %v %v", got, err)
		}
		if _, err := log.Append(p, []byte("rec")); err != nil {
			t.Errorf("log: %v", err)
		}
		if err := log.Sync(p); err != nil {
			t.Errorf("sync: %v", err)
		}
	})
	eng.Run()
}
