package pcm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testConfig() Config {
	return Config{
		CapacityBytes: 1 << 20,
		LineSize:      64,
		ReadLatency:   100 * sim.Nanosecond,
		WriteLatency:  800 * sim.Nanosecond,
		Endurance:     0,
	}
}

func newTestDevice(t *testing.T, cfg Config) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := New(eng, "pcm0", cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng, d
}

func TestWriteReadRoundTrip(t *testing.T) {
	eng, d := newTestDevice(t, testConfig())
	want := []byte("the necessary death of the block device interface")
	d.Write(100, want, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	var got []byte
	d.Read(100, len(want), func(b []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = b
	})
	eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	eng, d := newTestDevice(t, testConfig())
	var got []byte
	d.Read(5000, 10, func(b []byte, _ error) { got = b })
	eng.Run()
	for _, v := range got {
		if v != 0 {
			t.Fatal("unwritten bytes not zero")
		}
	}
}

func TestInPlaceUpdate(t *testing.T) {
	eng, d := newTestDevice(t, testConfig())
	d.Write(0, []byte("aaaa"), func(error) {})
	d.Write(0, []byte("bbbb"), func(error) {}) // no erase needed — PCM
	var got []byte
	d.Read(0, 4, func(b []byte, _ error) { got = b })
	eng.Run()
	if string(got) != "bbbb" {
		t.Fatalf("in-place update failed: %q", got)
	}
}

func TestCrossChunkWrite(t *testing.T) {
	eng, d := newTestDevice(t, testConfig())
	want := make([]byte, 10000) // spans 3 chunks
	for i := range want {
		want[i] = byte(i * 7)
	}
	d.Write(chunkSize-100, want, func(error) {})
	var got []byte
	d.Read(chunkSize-100, len(want), func(b []byte, _ error) { got = b })
	eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("cross-chunk round trip failed")
	}
}

func TestLatencyPerLine(t *testing.T) {
	eng, d := newTestDevice(t, testConfig())
	var end sim.Time
	// 64 bytes at offset 0 = 1 line; 65 bytes = 2 lines.
	d.Write(0, make([]byte, 65), func(error) { end = eng.Now() })
	eng.Run()
	if end != 1600*sim.Nanosecond {
		t.Fatalf("2-line write ended at %v, want 1.6µs", end)
	}
	start := eng.Now()
	d.Read(0, 64, func([]byte, error) { end = eng.Now() })
	eng.Run()
	if end-start != 100*sim.Nanosecond {
		t.Fatalf("1-line read took %v, want 100ns", end-start)
	}
}

func TestMisalignedAccessTouchesExtraLine(t *testing.T) {
	_, d := newTestDevice(t, testConfig())
	// 64 bytes starting at offset 32 spans lines 0 and 1.
	if got := d.lines(32, 64); got != 2 {
		t.Fatalf("lines(32,64) = %d, want 2", got)
	}
	if got := d.lines(0, 64); got != 1 {
		t.Fatalf("lines(0,64) = %d, want 1", got)
	}
	if got := d.lines(0, 0); got != 0 {
		t.Fatalf("lines(0,0) = %d, want 0", got)
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	_, d := newTestDevice(t, testConfig())
	if err := d.Read(1<<20, 1, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end: %v", err)
	}
	if err := d.Write(-1, []byte("x"), nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative offset: %v", err)
	}
	if err := d.Write(1<<20-1, []byte("xx"), nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write spanning end: %v", err)
	}
}

func TestEnduranceWearOut(t *testing.T) {
	cfg := testConfig()
	cfg.Endurance = 5
	eng, d := newTestDevice(t, cfg)
	var lastErr error
	for i := 0; i < 6; i++ {
		d.Write(0, []byte("x"), func(err error) { lastErr = err })
		eng.Run()
	}
	if !errors.Is(lastErr, ErrWornOut) {
		t.Fatalf("6th write to endurance-5 line: err = %v, want ErrWornOut", lastErr)
	}
	if wearOf(d, 0) != 6 {
		t.Fatalf("WearOf = %d, want 6", wearOf(d, 0))
	}
}

// TestWearMatchesPerLineModel replays seeded writes — single bytes,
// line- and group-straddling spans, whole pages — against a plain
// per-line map: the grouped counters must report the same WearOf on
// every touched line and raise ErrWornOut on exactly the same writes.
func TestWearMatchesPerLineModel(t *testing.T) {
	cfg := testConfig()
	cfg.Endurance = 6
	eng, d := newTestDevice(t, cfg)
	const ls, groupBytes = 64, 64 * wearGroup
	model := map[int64]int64{}
	rng := rand.New(rand.NewSource(17))
	// A few hot groups so lines cross the endurance limit, with offsets
	// biased onto line and group boundaries.
	bases := []int64{0, groupBytes, 7 * groupBytes, cfg.CapacityBytes - 2*groupBytes}
	lengths := []int{1, 2, ls - 1, ls, ls + 1, 3 * ls, chunkSize, groupBytes, groupBytes + 1}
	worn := 0
	for i := 0; i < 600; i++ {
		off := bases[rng.Intn(len(bases))] + int64(rng.Intn(groupBytes))
		switch rng.Intn(3) {
		case 0:
			off -= off % ls // line-aligned
		case 1:
			off = off - off%groupBytes + groupBytes - int64(1+rng.Intn(ls)) // ends of a group
		}
		n := lengths[rng.Intn(len(lengths))]
		if off+int64(n) > cfg.CapacityBytes {
			n = int(cfg.CapacityBytes - off)
		}
		wantWorn := false
		for line := off / ls; line <= (off+int64(n)-1)/ls; line++ {
			model[line]++
			wantWorn = wantWorn || model[line] > cfg.Endurance
		}
		var got error
		if err := d.Write(off, make([]byte, n), func(err error) { got = err }); err != nil {
			t.Fatalf("write %d: off=%d n=%d: %v", i, off, n, err)
		}
		eng.Run()
		if errors.Is(got, ErrWornOut) != wantWorn {
			t.Fatalf("write %d (off=%d n=%d): err = %v, model worn-out = %v", i, off, n, got, wantWorn)
		}
		if wantWorn {
			worn++
		}
	}
	if worn == 0 || worn == 600 {
		t.Fatalf("%d of 600 writes wore out: the mix should cross the limit part-way", worn)
	}
	for line, want := range model {
		if got := wearOf(d, line*ls); got != want {
			t.Fatalf("line %d: WearOf = %d, per-line model = %d", line, got, want)
		}
	}
	// Untouched lines in a touched group, and untouched groups, read 0.
	for _, line := range []int64{3*wearGroup + 5, cfg.CapacityBytes/ls/2 + 1} {
		if model[line] == 0 && wearOf(d, line*ls) != 0 {
			t.Fatalf("untouched line %d: WearOf = %d", line, wearOf(d, line*ls))
		}
	}
}

func TestPortSerializes(t *testing.T) {
	eng, d := newTestDevice(t, testConfig())
	var ends []sim.Time
	d.Write(0, make([]byte, 64), func(error) { ends = append(ends, eng.Now()) })
	d.Write(64, make([]byte, 64), func(error) { ends = append(ends, eng.Now()) })
	eng.Run()
	if len(ends) != 2 || ends[1] != 2*ends[0] {
		t.Fatalf("ends = %v: writes should serialize on the port", ends)
	}
}

func TestCountersAndConfig(t *testing.T) {
	eng, d := newTestDevice(t, testConfig())
	d.Write(0, []byte("a"), func(error) {})
	d.Read(0, 1, func([]byte, error) {})
	eng.Run()
	if d.Config().LineSize != 64 {
		t.Fatal("Config not exposed")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	eng := sim.NewEngine()
	for _, cfg := range []Config{
		{CapacityBytes: 0, LineSize: 64},
		{CapacityBytes: 100, LineSize: 0},
		{CapacityBytes: 100, LineSize: 64, ReadLatency: -1},
	} {
		if _, err := New(eng, "bad", cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.WriteLatency <= cfg.ReadLatency {
		t.Fatal("PCM writes should be slower than reads")
	}
	if cfg.CapacityBytes <= 0 || cfg.Endurance <= 0 {
		t.Fatal("default config incomplete")
	}
}

// Property: any sequence of writes then reads behaves like a flat byte
// array (in-place semantics).
func TestPropertyFlatArraySemantics(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(ops []op) bool {
		eng, _ := sim.NewEngine(), 0
		d, err := New(eng, "prop", testConfig())
		if err != nil {
			return false
		}
		model := make([]byte, 1<<17)
		for _, o := range ops {
			if len(o.Data) == 0 {
				continue
			}
			off := int64(o.Off)
			if off+int64(len(o.Data)) > int64(len(model)) {
				continue
			}
			d.Write(off, o.Data, func(error) {})
			copy(model[off:], o.Data)
		}
		eng.Run()
		ok := true
		d.Read(0, len(model), func(b []byte, _ error) { ok = bytes.Equal(b, model) })
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMemBusStorePersistLoad(t *testing.T) {
	eng, d := newTestDevice(t, testConfig())
	mb := NewMemBus(eng, d)
	var loaded []byte
	var persistTime, storeTime sim.Time
	eng.Go(func(p *sim.Proc) {
		if err := mb.Store(p, 0, []byte("commit-record")); err != nil {
			t.Errorf("store: %v", err)
		}
		storeTime = p.Now()
		mb.Persist(p)
		persistTime = p.Now()
		b, err := mb.Load(p, 0, 13)
		if err != nil {
			t.Errorf("load: %v", err)
		}
		loaded = b
	})
	eng.Run()
	if string(loaded) != "commit-record" {
		t.Fatalf("loaded %q", loaded)
	}
	if storeTime == 0 {
		t.Fatal("store should cost CPU time")
	}
	if persistTime <= storeTime {
		t.Fatal("persist should cost more than store")
	}
}

func TestMemBusPersistEmptyIsCheap(t *testing.T) {
	eng, d := newTestDevice(t, testConfig())
	mb := NewMemBus(eng, d)
	var elapsed sim.Time
	eng.Go(func(p *sim.Proc) {
		start := p.Now()
		mb.Persist(p)
		elapsed = p.Now() - start
	})
	eng.Run()
	if elapsed != mb.BarrierCost {
		t.Fatalf("empty persist took %v, want barrier cost %v", elapsed, mb.BarrierCost)
	}
}

func TestMemBusStoreVisibleBeforePersist(t *testing.T) {
	eng, d := newTestDevice(t, testConfig())
	mb := NewMemBus(eng, d)
	var got []byte
	eng.Go(func(p *sim.Proc) {
		mb.Store(p, 10, []byte("xyz"))
		b, _ := mb.Load(p, 10, 3)
		got = b
	})
	eng.Run()
	if string(got) != "xyz" {
		t.Fatal("store-to-load forwarding broken")
	}
}

func TestMemBusOutOfRange(t *testing.T) {
	eng, d := newTestDevice(t, testConfig())
	mb := NewMemBus(eng, d)
	eng.Go(func(p *sim.Proc) {
		if err := mb.Store(p, 1<<20, []byte("x")); err == nil {
			t.Error("out-of-range store accepted")
		}
		if _, err := mb.Load(p, -1, 4); err == nil {
			t.Error("out-of-range load accepted")
		}
	})
	eng.Run()
}

// A load allocates the bytes it returns and nothing else: its wait for
// the device port runs on a pooled record, as a persist's does. The
// per-load count is the difference of two runs, so the process that
// issues the loads costs nothing in it.
func TestMemBusLoadAllocatesOnlyItsBytes(t *testing.T) {
	eng, d := newTestDevice(t, testConfig())
	mb := NewMemBus(eng, d)
	loads := func(n int) float64 {
		return testing.AllocsPerRun(1, func() {
			eng.Go(func(p *sim.Proc) {
				for range n {
					if _, err := mb.Load(p, 0, 64); err != nil {
						t.Error(err)
					}
				}
			})
			eng.Run()
		})
	}
	loads(1) // the pooled record
	if per := (loads(200) - loads(100)) / 100; per != 1 {
		t.Errorf("%.2f allocations per load, want 1 (the returned bytes)", per)
	}
}

// wearOf reports the write count of the line containing off.
func wearOf(d *Device, off int64) int64 {
	line := off / int64(d.cfg.LineSize)
	if group := d.wear[line/wearGroup]; group != nil {
		return group[line%wearGroup]
	}
	return 0
}
