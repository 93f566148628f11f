package ftl

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/nand"
	"repro/internal/sim"
)

// legacySpec is a tiny random-program chip for legacy FTL tests.
func legacySpec() nand.Spec {
	s := tinySpec()
	s.SupportsRandomProgram = true
	return s
}

func legacyArray(t *testing.T, channels, chips int) (*sim.Engine, *Array) {
	t.Helper()
	eng := sim.NewEngine()
	arr, err := NewArray(eng, ArrayConfig{
		Channels:        channels,
		ChipsPerChannel: chips,
		Chip:            legacySpec(),
		Channel:         bus.Config{MBPerSec: 40, CmdOverhead: 2 * sim.Microsecond},
	}, 0)
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	return eng, arr
}

func ftlWrite(t *testing.T, eng *sim.Engine, f FTL, lpn int64, fill byte) {
	t.Helper()
	var gotErr error
	done := false
	f.WriteLPN(lpn, pageData(f.PageSize(), fill), func(err error) { gotErr, done = err, true })
	eng.Run()
	if !done || gotErr != nil {
		t.Fatalf("write lpn %d: done=%v err=%v", lpn, done, gotErr)
	}
}

func ftlRead(t *testing.T, eng *sim.Engine, f FTL, lpn int64) []byte {
	t.Helper()
	var data []byte
	var gotErr error
	done := false
	f.ReadLPN(lpn, func(d []byte, err error) { data, gotErr, done = d, err, true })
	eng.Run()
	if !done || gotErr != nil {
		t.Fatalf("read lpn %d: done=%v err=%v", lpn, done, gotErr)
	}
	return data
}

func TestHybridFTLRejectsSequentialOnlyChips(t *testing.T) {
	eng := sim.NewEngine()
	arr, err := NewArray(eng, ArrayConfig{
		Channels: 1, ChipsPerChannel: 1,
		Chip:    tinySpec(), // sequential-program-only
		Channel: bus.ONFI1,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHybridFTL(arr, 0.1, 4); err == nil {
		t.Fatal("HybridFTL accepted sequential-only chips")
	}
}

func TestHybridFTLRoundTripAndLog(t *testing.T) {
	eng, arr := legacyArray(t, 1, 2)
	f, err := NewHybridFTL(arr, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ftlWrite(t, eng, f, 0, 0x11)
	ftlWrite(t, eng, f, 0, 0x22) // goes to log
	if got := ftlRead(t, eng, f, 0); got[0] != 0x22 {
		t.Fatal("log version not served")
	}
	if f.Stats().MergeOps != 0 {
		t.Fatal("small overwrite should not merge yet")
	}
}

func TestHybridFTLSequentialSwitchMerge(t *testing.T) {
	eng, arr := legacyArray(t, 1, 2)
	f, err := NewHybridFTL(arr, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Three logical blocks overwritten fully, in order, repeatedly: each
	// evicted log block holds exactly one complete, newest logical block
	// -> switch merges, no page copies.
	const nLPN = 12
	for round := 0; round < 6; round++ {
		for i := int64(0); i < nLPN; i++ {
			ftlWrite(t, eng, f, i, byte(round*10+int(i)))
		}
	}
	for i := int64(0); i < nLPN; i++ {
		if got := ftlRead(t, eng, f, i); got[0] != byte(50+int(i)) {
			t.Fatalf("lpn %d = %d, want %d", i, got[0], 50+int(i))
		}
	}
	if f.Stats().SwitchMerges == 0 {
		t.Fatal("sequential whole-block overwrites produced no switch merges")
	}
	if arr.CopyBacks != 0 {
		t.Fatalf("sequential overwrite did %d page copies; switch merge should avoid them", arr.CopyBacks)
	}
}

func TestHybridFTLRandomThrashes(t *testing.T) {
	type result struct {
		elapsed sim.Time
		merges  int64
	}
	run := func(random bool) result {
		eng, arr := legacyArray(t, 1, 2)
		f, err := NewHybridFTL(arr, 0.2, 2)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(5)
		n := int64(40)
		for i := int64(0); i < n; i++ {
			f.WriteLPN(i, nil, func(error) {})
			eng.Run()
		}
		start := eng.Now()
		for i := int64(0); i < 3*n; i++ {
			lpn := i % n
			if random {
				lpn = rng.Int63n(n)
			}
			f.WriteLPN(lpn, nil, func(error) {})
			eng.Run()
		}
		return result{eng.Now() - start, f.Stats().MergeOps}
	}
	seq := run(false)
	rnd := run(true)
	if rnd.elapsed <= 2*seq.elapsed {
		t.Fatalf("random (%v) should be >2x slower than sequential (%v) on hybrid mapping", rnd.elapsed, seq.elapsed)
	}
	if rnd.merges <= seq.merges {
		t.Fatalf("random merges (%d) should exceed sequential merges (%d)", rnd.merges, seq.merges)
	}
}

func TestHybridFTLTrim(t *testing.T) {
	eng, arr := legacyArray(t, 1, 2)
	f, err := NewHybridFTL(arr, 0.2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ftlWrite(t, eng, f, 3, 0x44)
	if err := f.Trim(3); err != nil {
		t.Fatal(err)
	}
	if got := ftlRead(t, eng, f, 3); got != nil {
		t.Fatal("trimmed page still readable")
	}
}

// Property: HybridFTL behaves like a map under random write and
// overwrite sequences.
func TestPropertyLegacyFTLsMatchModel(t *testing.T) {
	run := func(ops []uint16) bool {
		eng, arr := legacyArray(t, 1, 2)
		f, err := NewHybridFTL(arr, 0.2, 2)
		if err != nil {
			return false
		}
		model := map[int64]byte{}
		n := int64(24) // keep below capacity so merges always have room
		for _, op := range ops {
			lpn := int64(op) % n
			fill := byte(op >> 8)
			ok := true
			f.WriteLPN(lpn, pageData(256, fill), func(err error) { ok = err == nil })
			eng.Run()
			if !ok {
				return false
			}
			model[lpn] = fill
		}
		for lpn := int64(0); lpn < n; lpn++ {
			var got []byte
			var gerr error
			f.ReadLPN(lpn, func(d []byte, err error) { got, gerr = d, err })
			eng.Run()
			if gerr != nil {
				return false
			}
			want, ok := model[lpn]
			if !ok {
				if got != nil {
					return false
				}
				continue
			}
			if got == nil || got[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 20}); err != nil {
		t.Errorf("hybrid: %v", err)
	}
}

func TestDFTLChargesMapTraffic(t *testing.T) {
	eng, arr := tinyArray(t, 1, 2)
	inner, err := NewPageFTL(arr, writeThroughConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Each translation page covers 256/8 = 32 lpns; CMT of 1 page.
	d := NewDFTL(inner, 1)
	// lpn 0 (tpn 0): cold miss.
	ftlWrite(t, eng, d, 0, 1)
	if d.Stats().MapReads != 1 {
		t.Fatalf("MapReads = %d, want 1", d.Stats().MapReads)
	}
	// lpn 1 (same tpn): hit.
	ftlWrite(t, eng, d, 1, 1)
	if d.Stats().MapReads != 1 {
		t.Fatalf("MapReads after hit = %d, want 1", d.Stats().MapReads)
	}
	// lpn 40 (tpn 1): miss, evicts dirty tpn 0 -> map write + map read.
	ftlWrite(t, eng, d, 40, 1)
	if d.Stats().MapReads != 2 || d.Stats().MapWrites != 1 {
		t.Fatalf("MapReads=%d MapWrites=%d, want 2/1", d.Stats().MapReads, d.Stats().MapWrites)
	}
	// Data still correct through the cache.
	if got := ftlRead(t, eng, d, 0); got[0] != 1 {
		t.Fatal("data lost through DFTL")
	}
}

func TestDFTLColdCacheSlowerThanWarm(t *testing.T) {
	elapsed := func(cmtPages int) sim.Time {
		eng, arr := tinyArray(t, 1, 2)
		inner, err := NewPageFTL(arr, writeThroughConfig())
		if err != nil {
			t.Fatal(err)
		}
		d := NewDFTL(inner, cmtPages)
		rng := sim.NewRNG(7)
		start := eng.Now()
		for i := 0; i < 60; i++ {
			d.WriteLPN(rng.Int63n(d.Capacity()), nil, func(error) {})
			eng.Run()
		}
		return eng.Now() - start
	}
	small := elapsed(1)
	big := elapsed(64)
	if small <= big {
		t.Fatalf("thrashing CMT (%v) should be slower than large CMT (%v)", small, big)
	}
}

func TestDFTLErrorsPropagate(t *testing.T) {
	eng, arr := tinyArray(t, 1, 2)
	inner, err := NewPageFTL(arr, writeThroughConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDFTL(inner, 2)
	var gotErr error
	d.WriteLPN(d.Capacity()+1, nil, func(err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrLPNRange) {
		t.Fatalf("err = %v", gotErr)
	}
	if err := d.Trim(-1); !errors.Is(err, ErrLPNRange) {
		t.Fatalf("trim err = %v", err)
	}
}
