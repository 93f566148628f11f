package blockdev

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/ssd"
)

// wrappedDev forwards every command to the device it embeds and counts
// the writes that reach its own Write. copying makes it hand the device
// a copy of each payload instead of the caller's buffer.
type wrappedDev struct {
	*ssd.Device
	writes  int
	copying bool
}

func (w *wrappedDev) Write(lpn int64, data []byte, done func(error)) {
	w.writes++
	if w.copying {
		data = bytes.Clone(data)
	}
	w.Device.Write(lpn, data, done)
}

// A sealed write (Request.Sealed) reaches the device through the stack
// uncopied: the page reads back as the caller's buffer itself, on a
// buffered and an unbuffered device, directly and through a wrapper
// that embeds the device, whose Write it still passes through. A plain
// write, a sealed write behind a wrapper that substitutes its own
// buffer, the Write that follows a mark of another buffer, and a later
// write of that marked buffer each read back a copy: the mark names one
// buffer for one Write.
func TestSealedWriteReachesTheDeviceUncopied(t *testing.T) {
	for _, bufferPages := range []int{-1, 0} {
		for _, wrap := range []string{"direct", "wrapped", "copying wrapper"} {
			eng := sim.NewEngine()
			d, err := ssd.Build(eng, ssd.Enterprise2012, ssd.Options{Channels: 1, ChipsPerChannel: 1, BlocksPerPlane: 8, PagesPerBlock: 8, BufferPages: bufferPages})
			if err != nil {
				t.Fatal(err)
			}
			var dev ssd.Dev = d
			w := &wrappedDev{Device: d.(*ssd.Device), copying: wrap == "copying wrapper"}
			if wrap != "direct" {
				dev = w
			}
			s, err := New(eng, dev, DefaultConfig(Direct))
			if err != nil {
				t.Fatal(err)
			}
			ps := dev.PageSize()
			page := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, ps) }
			sealed, plain, stale, other := page(1), page(2), page(3), page(4)
			eng.Go(func(p *sim.Proc) {
				for _, req := range []Request{
					{Op: OpWrite, LPN: 0, Data: sealed, Sealed: true},
					{Op: OpWrite, LPN: 1, Data: plain},
				} {
					if _, err := s.SubmitSync(p, 0, req); err != nil {
						t.Fatal(err)
					}
				}
				d.(*ssd.Device).MarkSealed(stale) // for a Write that never comes
				if _, err := s.SubmitSync(p, 0, Request{Op: OpWrite, LPN: 3, Data: other}); err != nil {
					t.Fatal(err)
				}
				if _, err := s.SubmitSync(p, 0, Request{Op: OpWrite, LPN: 2, Data: stale}); err != nil {
					t.Fatal(err)
				}
				for lpn, buf := range [][]byte{sealed, plain, stale, other} {
					got, err := s.SubmitSync(p, 0, Request{Op: OpRead, LPN: int64(lpn)})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, buf) {
						t.Fatalf("buffer %d, %s: lpn %d reads other bytes than it was written", bufferPages, wrap, lpn)
					}
					shared := &got[0] == &buf[0]
					if want := lpn == 0 && wrap != "copying wrapper"; shared != want {
						t.Errorf("buffer %d, %s: lpn %d reads the caller's buffer itself: %v, want %v", bufferPages, wrap, lpn, shared, want)
					}
				}
			})
			eng.Run()
			if wrap != "direct" && w.writes != 4 {
				t.Errorf("buffer %d, %s: %d of 4 writes reached the wrapper's Write", bufferPages, wrap, w.writes)
			}
		}
	}
}
