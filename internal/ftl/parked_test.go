package ftl

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// parkedWriteBack is a buffered device caught with one write-back parked
// on a chip for want of space: taken out of the write buffer, not yet
// mapped. The parked job writes fill to lpn.
type parkedWriteBack struct {
	eng   *sim.Engine
	f     *PageFTL
	lpn   int64
	fill  byte
	chip  int
	acked map[int64]bool // LPNs whose latest write was acknowledged
}

// parkWriteBack preloads every LPN of a tiny device, then overwrites
// them in order, pass after pass (pass p writes fill p+2), through a
// 2-page write buffer at queue depth 8. The writes outrun GC, so
// write-backs park for space. At each park the writers pause: if ready
// holds while that job is still parked, it is returned; if the job
// lands first, the writers resume until the next park.
func parkWriteBack(t *testing.T, ready func(pw *parkedWriteBack) bool) *parkedWriteBack {
	t.Helper()
	cfg := writeThroughConfig()
	cfg.BufferPages = 2
	eng, f := newTinyFTL(t, cfg)
	for lpn := int64(0); lpn < f.Capacity(); lpn++ {
		mustWrite(t, eng, f, lpn, 1)
	}
	pw := &parkedWriteBack{eng: eng, f: f, lpn: -1, acked: map[int64]bool{}}
	const depth = 8
	next, writing, total := int64(0), 0, 16*f.Capacity()
	var write func()
	write = func() {
		if pw.lpn >= 0 || next == total {
			return
		}
		lpn := next % f.Capacity()
		fill := byte(next/f.Capacity() + 2)
		next++
		writing++
		pw.acked[lpn] = false
		f.WriteLPN(lpn, pageData(f.PageSize(), fill), func(err error) {
			if err != nil {
				t.Errorf("write lpn %d: %v", lpn, err)
			}
			writing--
			pw.acked[lpn] = true
			write()
		})
	}
	for eng.Step() || pw.lpn < 0 && writing == 0 && next < total {
		switch {
		case pw.lpn < 0:
			for c := range f.chips {
				for _, job := range f.chips[c].pending.live() {
					if job.buffered && pw.lpn < 0 {
						pw.lpn, pw.fill, pw.chip = job.lpn, job.data[0], c
					}
				}
			}
			if pw.lpn < 0 {
				for writing < depth && next < total {
					write()
				}
			}
		case !pw.parked():
			pw.lpn = -1 // landed: resume the writers
		case ready(pw):
			return pw
		}
	}
	t.Fatal("no write-back stayed parked until ready")
	return nil
}

func always(*parkedWriteBack) bool { return true }

// parked reports whether the write-back is still parked on its chip.
func (pw *parkedWriteBack) parked() bool {
	for _, job := range pw.f.chips[pw.chip].pending.live() {
		if job.buffered && job.lpn == pw.lpn {
			return true
		}
	}
	return false
}

// A trim of an LPN whose write-back is parked drops it: once the device
// settles, the LPN reads unmapped, not the bytes the parked job carried.
func TestTrimOfParkedWriteBackSticks(t *testing.T) {
	pw := parkWriteBack(t, always)
	if err := pw.f.Trim(pw.lpn); err != nil {
		t.Fatal(err)
	}
	pw.eng.Run()
	if got := mustRead(t, pw.eng, pw.f, pw.lpn); got != nil {
		t.Fatalf("trimmed lpn %d reads %d bytes of fill %d: the parked write-back mapped it back", pw.lpn, len(got), got[0])
	}
}

// A read of an LPN whose acknowledged write-back is parked returns that
// write's bytes, not the older page the map still points at.
func TestReadOfParkedWriteBackSeesIt(t *testing.T) {
	pw := parkWriteBack(t, always)
	for !pw.acked[pw.lpn] && pw.eng.Step() {
	}
	if !pw.parked() {
		t.Fatal("the write-back landed before its write was acknowledged")
	}
	var got []byte
	pw.f.ReadLPN(pw.lpn, func(d []byte, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = d
	})
	pw.eng.Run()
	if want := pageData(pw.f.PageSize(), pw.fill); !bytes.Equal(got, want) {
		t.Fatalf("lpn %d read while its write-back was parked returns fill %d, want the acknowledged fill %d", pw.lpn, got[0], want[0])
	}
}

// A newer write of an LPN whose write-back is parked, flushed out to a
// chip with room and mapped first, stands: the parked job, older, lands
// after it and must not map its bytes over the newer ones.
func TestParkedWriteBackYieldsToNewerWrite(t *testing.T) {
	// Wait until a flush would take every buffered entry, the newer
	// write among them, while another chip has room.
	pw := parkWriteBack(t, func(pw *parkedWriteBack) bool {
		f := pw.f
		if f.arr.Chips()-f.buf.flushing <= f.buf.entries.n {
			return false
		}
		for c := range f.chips {
			if c != pw.chip && f.hostSpace(c) {
				return true
			}
		}
		return false
	})
	f := pw.f
	newer := pageData(f.PageSize(), 0xEE)
	f.WriteLPN(pw.lpn, newer, func(err error) {
		if err != nil {
			t.Errorf("newer write: %v", err)
		}
	})
	flushed := false
	f.Flush(func() { flushed = true })
	if !pw.parked() {
		t.Fatal("the parked write-back landed before the newer one was taken")
	}
	pw.eng.Run()
	if !flushed {
		t.Fatal("flush never completed")
	}
	if got := mustRead(t, pw.eng, f, pw.lpn); !bytes.Equal(got, newer) {
		t.Fatalf("lpn %d reads fill %d after settling, want the newest write's fill %d", pw.lpn, got[0], newer[0])
	}
}
