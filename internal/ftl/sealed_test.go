package ftl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

// A sealed payload (WriteSealed) is the page's payload itself: the FTL
// never writes into it and never hands it to another write's entry copy.
// A seeded script at queue depth 8 mixes sealed and copied writes of the
// same LPNs, reads and trims over most of a 4-chip, 2-plane array whose
// chip 3 fails every program, so GC moves pages by copyback and across
// planes and failed programs are retried elsewhere; the volatile buffer
// loses its contents to two power cuts. The script counts what it
// reached: sealed writes over copied entries and the reverse, stalled
// sealed writes, a second write of an LPN stalled behind its first,
// sealed write-backs parked and then superseded, trims,
// the crashes' losses, GC moves and failed programs. At the end every
// sealed buffer still holds the bytes it was handed in with, none is on
// the spare list, and each LPN whose last write was sealed reads back
// that very buffer: the chip kept it, no copy. Removing any one of
// spareEntry's callers' sealed bit, commitWrite's own guard, or insert's
// replace-not-copy rule fails it.
func TestSealedPayloadIsNeverRecycledOrWritten(t *testing.T) {
	for _, mode := range []struct {
		name                  string
		buffered, safe, crash bool
		stalls, parks         bool
	}{
		{name: "unbuffered"},
		{name: "volatile", buffered: true, crash: true, stalls: true, parks: true},
		{name: "safe", buffered: true, safe: true, stalls: true, parks: true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			eng := sim.NewEngine()
			spec := tinySpec()
			spec.Geometry.PlanesPerLUN = 2
			arr, err := NewArray(eng, ArrayConfig{
				Channels: 2, ChipsPerChannel: 2, Chip: spec,
				Channel: bus.Config{MBPerSec: 200, CmdOverhead: sim.Microsecond},
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := writeThroughConfig()
			if mode.buffered {
				cfg.BufferPages = 8
				cfg.BufferSafe = mode.safe
			}
			f, err := NewPageFTL(arr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			arr.Chip(3).Fail()
			ps := f.PageSize()

			type sealedBuf struct{ buf, want []byte }
			var sealed []sealedBuf
			last := map[int64][]byte{} // lpn -> its last write's buffer, when sealed
			model := map[int64]uint64{}
			// unknown holds the lpns whose last bytes the script cannot
			// tell: a power cut may have rolled them back, or two writes of
			// them were in flight at once, which the device owes no order.
			unknown := map[int64]bool{}
			busy := map[int64]int{} // commands in flight per lpn
			var reached struct {
				sealedOverOwned, ownedOverSealed, restalled, trims, crashLost int
			}
			stalled := map[uint64]bool{}    // sealed writes seen stalled on the full buffer
			superseded := map[uint64]bool{} // sealed write-backs seen parked behind a newer version
			// waits reports whether a write of lpn is stalled on the full
			// buffer, so a second one stalls behind it and is admitted over
			// it (writeBuffer.admitWaiting).
			waits := func(lpn int64) bool {
				for k := 0; f.buf != nil && k < f.buf.waiting.Len(); k++ {
					if f.buf.waiting.At(k).lpn == lpn {
						return true
					}
				}
				return false
			}
			// entry reports whether lpn has a buffered or mapped version and
			// whether it is sealed.
			entry := func(lpn int64) (present, isSealed bool) {
				if f.buf != nil {
					if i := f.buf.slotOf(lpn); i != 0 {
						return true, f.buf.slots[i].sealed
					}
				}
				if f.lookup(lpn) != InvalidPPA {
					_, isSealed = last[lpn]
					return true, isSealed
				}
				return false, false
			}
			rng := sim.NewRNG(23)
			span := f.Capacity() * 7 / 8
			var seq uint64
			left := 12 * int(f.Capacity())
			// The volatile buffer loses power twice in the second half of
			// the script: once when the spare list has room for a stalled
			// sealed write's buffer, once for a resident sealed entry's, in
			// the order dropVolatile spares them.
			crashAt, crashes := left/2, []bool{true, false}
			spareable := func(fromWaiting bool) bool {
				room := arr.PagesPerBlock() - len(f.spares)
				for k := 0; k < f.buf.waiting.Len() && room > 0; k++ {
					if job := f.buf.waiting.At(k); job.sealed {
						return fromWaiting
					} else if job.data != nil {
						room--
					}
				}
				if fromWaiting {
					return false
				}
				for _, lpn := range f.buf.lpns() {
					if e := f.buf.slots[f.buf.index[lpn]]; room == 0 {
						break
					} else if e.sealed {
						return true
					} else if e.data != nil {
						room--
					}
				}
				return false
			}
			var recent []int64 // the last eight LPNs written
			var next func()
			next = func() {
				if left == 0 {
					return
				}
				// In every other run of 256 commands a writer waits for room
				// in the buffer rather than stall, so write-backs park on
				// chips for space (PageFTL.reroute) instead of staying
				// resident behind a stalled write.
				if f.buf != nil && left/256%2 == 1 && (f.buf.resident >= f.buf.cap || f.buf.stalled()) {
					eng.After(10*sim.Microsecond, next)
					return
				}
				left--
				if mode.crash && left < crashAt && len(crashes) > 0 && spareable(crashes[0]) {
					crashes = crashes[1:]
					for k := 0; k < f.buf.waiting.Len(); k++ {
						unknown[f.buf.waiting.At(k).lpn] = true // acknowledged when dropped
					}
					for _, lpn := range f.DropVolatileBuffer() {
						unknown[lpn] = true
						reached.crashLost++
					}
				}
				r := rng.Float64()
				lpn := rng.Int63n(span)
				if len(recent) > 0 && rng.Float64() < 0.3 {
					lpn = recent[rng.Intn(len(recent))]
				}
				// A write may join a stalled write of its LPN, and only then
				// is a second command of an LPN in flight.
				for busy[lpn] > 0 && !(r < 0.6 && waits(lpn)) {
					lpn = rng.Int63n(span)
				}
				switch {
				case r < 0.6:
					if busy[lpn] > 0 {
						reached.restalled++
					}
					seq++
					data := stamped(ps, seq)
					seal := r < 0.35
					present, wasSealed := entry(lpn)
					switch {
					case present && seal && !wasSealed:
						reached.sealedOverOwned++
					case present && !seal && wasSealed:
						reached.ownedOverSealed++
					}
					write := f.WriteLPN
					if seal {
						write = f.WriteSealed
						sealed = append(sealed, sealedBuf{data, bytes.Clone(data)})
						last[lpn] = data
					} else {
						delete(last, lpn)
					}
					model[lpn] = seq
					unknown[lpn] = busy[lpn] > 0
					busy[lpn]++
					if recent = append(recent, lpn); len(recent) > 8 {
						recent = recent[1:]
					}
					write(lpn, data, func(err error) {
						if err != nil {
							t.Errorf("write lpn %d: %v", lpn, err)
						}
						busy[lpn]--
						next()
					})
				case r < 0.9:
					busy[lpn]++
					f.ReadLPN(lpn, func(_ []byte, err error) {
						if err != nil && !errors.Is(err, ErrUncorrectable) {
							t.Errorf("read lpn %d: %v", lpn, err)
						}
						busy[lpn]--
						next()
					})
				default:
					if present, _ := entry(lpn); present {
						reached.trims++
					}
					delete(model, lpn)
					delete(last, lpn)
					delete(unknown, lpn)
					if err := f.Trim(lpn); err != nil {
						t.Fatal(err)
					}
					eng.After(sim.Microsecond, next)
				}
			}
			for i := 0; i < 8; i++ {
				next()
			}
			for eng.Step() {
				if f.buf == nil {
					continue
				}
				for k := 0; k < f.buf.waiting.Len(); k++ {
					if job := f.buf.waiting.At(k); job.sealed {
						stalled[binary.LittleEndian.Uint64(job.data)] = true
					}
				}
				for c := range f.chips {
					for k, q := 0, &f.chips[c].pending; k < q.Len(); k++ {
						job := q.At(k)
						if p, ok := f.buf.parked[job.lpn]; job.sealed && job.parked && (!ok || p.seq != job.seq) {
							superseded[binary.LittleEndian.Uint64(job.data)] = true
						}
					}
				}
			}
			flushed := false
			f.Flush(func() { flushed = true })
			eng.Run()
			if !flushed {
				t.Fatal("the final flush never completed")
			}

			st := f.Stats()
			fails := arr.Chip(3).Stats().ProgramFails
			t.Logf("%d writes (%d sealed): %+v, %d sealed stalled, %d sealed write-backs superseded while parked; %d GC moves (%d copyback), %d failed programs",
				seq, len(sealed), reached, len(stalled), len(superseded), st.GCMoves, arr.CopyBacks, fails)
			missed := reached.sealedOverOwned == 0 || reached.ownedOverSealed == 0 || reached.trims == 0 ||
				mode.stalls && reached.restalled == 0 ||
				st.GCMoves == 0 || arr.CopyBacks == 0 || st.GCMoves == arr.CopyBacks || fails == 0 ||
				mode.stalls && len(stalled) == 0 || mode.parks && len(superseded) == 0 ||
				mode.crash && (len(crashes) > 0 || reached.crashLost == 0)
			if missed {
				t.Fatal("the script missed a path")
			}
			for i, s := range sealed {
				if !bytes.Equal(s.buf, s.want) {
					t.Fatalf("sealed write %d of %d: its buffer now holds write %d's bytes",
						i, len(sealed), binary.LittleEndian.Uint64(s.buf))
				}
			}
			for _, s := range f.spares {
				for _, sb := range sealed {
					if &s[0] == &sb.buf[0] {
						t.Fatalf("a sealed buffer (write %d) is on the spare list", binary.LittleEndian.Uint64(sb.want))
					}
				}
			}
			for lpn := int64(0); lpn < span; lpn++ {
				if unknown[lpn] {
					continue
				}
				got := mustRead(t, eng, f, lpn)
				want, ok := model[lpn]
				switch {
				case !ok && got != nil:
					t.Fatalf("trimmed lpn %d reads %d bytes", lpn, len(got))
				case ok && !bytes.Equal(got, stamped(ps, want)):
					t.Fatalf("lpn %d reads other bytes than its last write %d", lpn, want)
				case last[lpn] != nil && &got[0] != &last[lpn][0]:
					t.Fatalf("lpn %d, last written sealed, reads a copy of its buffer", lpn)
				}
			}
			if got, want := payloadPages(arr), livePages(f); got != want {
				t.Fatalf("chips hold %d payloads, the map %d live pages", got, want)
			}
		})
	}
}
