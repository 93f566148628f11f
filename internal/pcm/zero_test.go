package pcm

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/sim"
)

// An all-zero span that lands where nothing was ever written stores
// nothing, since unwritten bytes already read as zero; zeros written over
// data still clear it; and what a write costs — port time and line wear —
// does not depend on whether its bytes are zero.
func TestZeroWritesStoreNothing(t *testing.T) {
	cfg := testConfig()
	cfg.Endurance = 10

	t.Run("unwritten range", func(t *testing.T) {
		eng, d := newTestDevice(t, cfg)
		d.Write(chunkSize-100, make([]byte, 3*chunkSize), func(error) {})
		eng.Run()
		if len(d.chunks) != 0 {
			t.Fatalf("zeros written to an unwritten range allocated %d chunks, want 0", len(d.chunks))
		}
		var got []byte
		d.Read(chunkSize-100, 3*chunkSize, func(b []byte, _ error) { got = b })
		eng.Run()
		if !bytes.Equal(got, make([]byte, 3*chunkSize)) {
			t.Fatal("an unwritten range does not read back as zeros")
		}
	})

	t.Run("over data", func(t *testing.T) {
		eng, d := newTestDevice(t, cfg)
		data := bytes.Repeat([]byte{0xA5}, 2*chunkSize)
		d.Write(100, data, func(error) {})
		d.Write(chunkSize, make([]byte, chunkSize), func(error) {})
		var got []byte
		d.Read(100, len(data), func(b []byte, _ error) { got = b })
		eng.Run()
		want := bytes.Clone(data)
		clear(want[chunkSize-100 : 2*chunkSize-100])
		if !bytes.Equal(got, want) {
			t.Fatal("zeros written over data did not clear it")
		}
	})

	t.Run("wear and timing", func(t *testing.T) {
		cost := func(data []byte) (sim.Time, []int64) {
			eng, d := newTestDevice(t, cfg)
			var end sim.Time
			d.Write(200, data, func(error) { end = eng.Now() })
			eng.Run()
			var wear []int64
			for off := int64(0); off < 200+int64(len(data))+128; off += int64(cfg.LineSize) {
				wear = append(wear, wearOf(d, off))
			}
			return end, wear
		}
		zeroEnd, zeroWear := cost(make([]byte, chunkSize))
		dataEnd, dataWear := cost(bytes.Repeat([]byte{1}, chunkSize))
		if zeroEnd != dataEnd || zeroEnd == 0 {
			t.Errorf("a zero page write ended at %v, a data page write at %v: want the same, nonzero", zeroEnd, dataEnd)
		}
		if !slices.Equal(zeroWear, dataWear) {
			t.Errorf("line wear after a zero write %v, after a data write %v: want the same", zeroWear, dataWear)
		}
	})
}
