package ssd

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bus"
	"repro/internal/ecc"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/pcm"
	"repro/internal/sim"
)

// smallFlash builds a small Enterprise-style device for tests.
func smallFlash(t *testing.T, buffered bool) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	spec := nand.Spec{
		Name: "t",
		Geometry: nand.Geometry{
			PageSize: 512, OOBSize: 16, PagesPerBlock: 4,
			BlocksPerPlane: 16, PlanesPerLUN: 1, LUNsPerChip: 1,
		},
		Timing: nand.Timing{
			ReadPage:    50 * sim.Microsecond,
			ProgramPage: 600 * sim.Microsecond,
			EraseBlock:  3 * sim.Millisecond,
		},
		Reliability: nand.Reliability{RatedCycles: 1_000_000},
	}
	arr, err := ftl.NewArray(eng, ftl.ArrayConfig{
		Channels: 2, ChipsPerChannel: 2,
		Chip:    spec,
		Channel: bus.Config{MBPerSec: 200, CmdOverhead: sim.Microsecond},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftl.Config{
		OverProvision: 0.2,
		GCLowWater:    2, GCHighWater: 3,
		ECC:  ecc.BCH8Per512,
		Seed: 1,
	}
	if buffered {
		cfg.BufferPages = 32
		cfg.BufferSafe = true
	}
	f, err := ftl.NewPageFTL(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(eng, "test-ssd", f, arr, SATA3)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func devWrite(t *testing.T, eng *sim.Engine, d Dev, lpn int64, fill byte) {
	t.Helper()
	data := make([]byte, d.PageSize())
	for i := range data {
		data[i] = fill
	}
	var gotErr error
	ok := false
	d.Write(lpn, data, func(err error) { gotErr, ok = err, true })
	eng.Run()
	if !ok || gotErr != nil {
		t.Fatalf("device write %d: ok=%v err=%v", lpn, ok, gotErr)
	}
}

func devRead(t *testing.T, eng *sim.Engine, d Dev, lpn int64) []byte {
	t.Helper()
	var data []byte
	var gotErr error
	ok := false
	d.Read(lpn, func(b []byte, err error) { data, gotErr, ok = b, err, true })
	eng.Run()
	if !ok || gotErr != nil {
		t.Fatalf("device read %d: ok=%v err=%v", lpn, ok, gotErr)
	}
	return data
}

func TestDeviceRoundTrip(t *testing.T) {
	eng, d := smallFlash(t, false)
	devWrite(t, eng, d, 3, 0x7E)
	got := devRead(t, eng, d, 3)
	if got[0] != 0x7E {
		t.Fatal("round trip failed")
	}
	if d.Metrics().Reads.Ops != 1 || d.Metrics().Writes.Ops != 1 {
		t.Fatal("metrics not recorded")
	}
}

func TestDeviceLatencyIncludesLinkAndFlash(t *testing.T) {
	eng, d := smallFlash(t, false)
	devWrite(t, eng, d, 0, 1)
	w := d.Metrics().WriteLat.Max()
	// Write-through: link (10µs cmd + ~0.85µs data) + channel (~3.5µs) +
	// program 600µs. Must exceed raw program time.
	if w < int64(600*sim.Microsecond) {
		t.Fatalf("write latency %dns below program time", w)
	}
	devRead(t, eng, d, 0)
	r := d.Metrics().ReadLat.Max()
	if r < int64(50*sim.Microsecond) || r > int64(200*sim.Microsecond) {
		t.Fatalf("read latency %dns outside plausible range", r)
	}
	if w < 2*r {
		t.Fatalf("unbuffered write (%d) should be much slower than read (%d)", w, r)
	}
}

func TestDeviceBufferedWriteLatencyCollapses(t *testing.T) {
	eng, d := smallFlash(t, true)
	devWrite(t, eng, d, 0, 1)
	w := d.Metrics().WriteLat.Max()
	// Buffered: ack after link transfer + buffer insert, no program wait.
	if w > int64(50*sim.Microsecond) {
		t.Fatalf("buffered write latency %dns; want cache speed", w)
	}
}

func TestDeviceTrimAndFlush(t *testing.T) {
	eng, d := smallFlash(t, true)
	devWrite(t, eng, d, 5, 9)
	if err := d.Trim(5); err != nil {
		t.Fatal(err)
	}
	flushed := false
	d.Flush(func() { flushed = true })
	eng.Run()
	if !flushed {
		t.Fatal("flush did not complete")
	}
	if got := devRead(t, eng, d, 5); got != nil {
		t.Fatal("trimmed lpn still readable")
	}
}

func TestDeviceAtomicWrite(t *testing.T) {
	eng, d := smallFlash(t, true)
	lpns := []int64{1, 2, 3}
	pages := make([][]byte, 3)
	for i := range pages {
		pages[i] = bytes.Repeat([]byte{byte(i + 10)}, d.PageSize())
	}
	var gotErr error
	ok := false
	d.AtomicWrite(lpns, pages, func(err error) { gotErr, ok = err, true })
	eng.Run()
	if !ok || gotErr != nil {
		t.Fatalf("atomic write: ok=%v err=%v", ok, gotErr)
	}
	for i, lpn := range lpns {
		if got := devRead(t, eng, d, lpn); got[0] != byte(i+10) {
			t.Fatalf("atomic page %d wrong", lpn)
		}
	}
}

func TestDeviceAtomicWriteNeedsSafeBuffer(t *testing.T) {
	eng, d := smallFlash(t, false)
	var gotErr error
	d.AtomicWrite([]int64{0}, [][]byte{make([]byte, 512)}, func(err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrAtomicUnsupported) {
		t.Fatalf("err = %v, want ErrAtomicUnsupported", gotErr)
	}
}

func TestDeviceAtomicWriteMismatchedArgs(t *testing.T) {
	eng, d := smallFlash(t, true)
	var gotErr error
	d.AtomicWrite([]int64{0, 1}, [][]byte{make([]byte, 512)}, func(err error) { gotErr = err })
	eng.Run()
	if gotErr == nil {
		t.Fatal("mismatched lpns/pages accepted")
	}
}

func TestDeviceNamelessRoundTrip(t *testing.T) {
	eng, d := smallFlash(t, false)
	data := bytes.Repeat([]byte{0xCD}, d.PageSize())
	var ppa ftl.PPA = ftl.InvalidPPA
	d.WriteNameless(data, func(p ftl.PPA, err error) {
		if err != nil {
			t.Errorf("nameless: %v", err)
		}
		ppa = p
	})
	eng.Run()
	if ppa == ftl.InvalidPPA {
		t.Fatal("no ppa")
	}
	var got []byte
	d.ReadPhys(ppa, func(b []byte, err error) {
		if err != nil {
			t.Errorf("readphys: %v", err)
		}
		got = b
	})
	eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("nameless round trip failed")
	}
	if err := d.TrimPhys(ppa); err != nil {
		t.Fatal(err)
	}
	if err := d.SetRelocationNotifier(func(o, n ftl.PPA) {}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceCrashLosesVolatileAcks(t *testing.T) {
	eng := sim.NewEngine()
	spec := nand.MLC
	spec.Geometry.BlocksPerPlane = 16
	spec.Reliability.FactoryBadBlockRate = 0
	arr, err := ftl.NewArray(eng, ftl.ArrayConfig{
		Channels: 1, ChipsPerChannel: 1, Chip: spec, Channel: bus.ONFI2,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftl.DefaultConfig()
	cfg.BufferPages = 64
	cfg.BufferSafe = false // consumer-grade volatile cache
	f, err := ftl.NewPageFTL(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(eng, "volatile", f, arr, SATA3)
	if err != nil {
		t.Fatal(err)
	}
	devWrite(t, eng, d, 0, 0xAA) // acked from cache
	lost := d.Crash()
	if len(lost) == 0 {
		t.Fatal("crash lost nothing despite volatile cache")
	}
}

func TestPresetsBuildAndWork(t *testing.T) {
	for _, p := range []Preset{Consumer2008, Enterprise2012, Enterprise2012Unbuffered, DFTL2012, PCM2012} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			opt := Options{Channels: 1, ChipsPerChannel: 2, BlocksPerPlane: 32}
			d, err := Build(eng, p, opt)
			if err != nil {
				t.Fatalf("Build(%v): %v", p, err)
			}
			if d.Capacity() <= 0 || d.PageSize() <= 0 {
				t.Fatal("degenerate geometry")
			}
			devWrite(t, eng, d, 1, 0x33)
			d.Flush(func() {})
			eng.Run()
			if got := devRead(t, eng, d, 1); got[0] != 0x33 {
				t.Fatalf("%v round trip failed", p)
			}
		})
	}
}

func TestPresetStrings(t *testing.T) {
	if Consumer2008.String() != "Consumer2008" || Preset(99).String() == "" {
		t.Fatal("preset names wrong")
	}
}

func TestPCMSSDBasics(t *testing.T) {
	eng := sim.NewEngine()
	cfg := pcm.DefaultConfig()
	cfg.CapacityBytes = 1 << 20
	d, err := NewPCMSSD(eng, "pcm", 2, 4096, cfg, PCIe4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Capacity() != 2*(1<<20)/4096 {
		t.Fatalf("capacity = %d", d.Capacity())
	}
	devWrite(t, eng, d, 0, 0x11)
	devWrite(t, eng, d, 1, 0x22) // other bank
	if devRead(t, eng, d, 0)[0] != 0x11 || devRead(t, eng, d, 1)[0] != 0x22 {
		t.Fatal("bank striping broke data")
	}
	// In-place overwrite needs no erase.
	devWrite(t, eng, d, 0, 0x99)
	if devRead(t, eng, d, 0)[0] != 0x99 {
		t.Fatal("in-place update failed")
	}
	// A nil write stores a zero page over what was there.
	d.Write(0, nil, func(err error) {
		if err != nil {
			t.Errorf("nil write: %v", err)
		}
	})
	eng.Run()
	if !bytes.Equal(devRead(t, eng, d, 0), make([]byte, 4096)) {
		t.Fatal("a nil write left the old data in place")
	}
	if err := d.Trim(0); err != nil {
		t.Fatal(err)
	}
	if err := d.Trim(d.Capacity()); err == nil {
		t.Fatal("out-of-range trim accepted")
	}
	fl := false
	d.Flush(func() { fl = true })
	eng.Run()
	if !fl {
		t.Fatal("flush")
	}
}

func TestPCMSSDFasterThanFlashForSmallWrites(t *testing.T) {
	engF, flash := smallFlash(t, false)
	devWrite(t, engF, flash, 0, 1)
	flashW := flash.Metrics().WriteLat.Max()

	engP := sim.NewEngine()
	cfg := pcm.DefaultConfig()
	cfg.CapacityBytes = 1 << 20
	pd, err := NewPCMSSD(engP, "pcm", 2, 512, cfg, PCIe4)
	if err != nil {
		t.Fatal(err)
	}
	devWrite(t, engP, pd, 0, 1)
	pcmW := pd.Metrics().WriteLat.Max()
	if pcmW >= flashW {
		t.Fatalf("PCM write (%d) should beat unbuffered flash write (%d)", pcmW, flashW)
	}
}

// BenchmarkPCMSSDPageWrite is the host cost of one 4 KiB page write to
// the PCM2012 preset: 64 line-wear increments and a chunk copy per op
// (E14's PCM precondition is millions of these).
func BenchmarkPCMSSDPageWrite(b *testing.B) {
	eng := sim.NewEngine()
	d, err := Build(eng, PCM2012, Options{})
	if err != nil {
		b.Fatal(err)
	}
	page := bytes.Repeat([]byte{1}, d.PageSize()) // zeros to an unwritten page store nothing
	done := func(error) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Write(int64(i)%d.Capacity(), page, done)
		eng.Run()
	}
}
