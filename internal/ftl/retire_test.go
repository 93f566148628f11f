package ftl

import (
	"bytes"
	"testing"
)

// A GC move whose destination fails to program leaves its source live:
// the destination's block is retired and queued behind the running
// evacuation, the same source is moved again, the victim is erased only
// once it is empty, and then the retired block's earlier copy moves too.
// The victim holds lpns 0 and 1; the first copy lands on a fresh GC
// frontier and the second is reported failed, so the retired frontier
// holds one live page when it queues.
func TestFailedGCMoveKeepsItsSource(t *testing.T) {
	eng, arr := tinyArray(t, 1, 1)
	f, err := NewPageFTL(arr, writeThroughConfig())
	if err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 4; lpn++ {
		mustWrite(t, eng, f, lpn, byte(0x40+lpn))
	}
	victim := arr.BlockOf(f.lookup(0))
	mustWrite(t, eng, f, 2, 0x52)
	mustWrite(t, eng, f, 3, 0x53)
	if f.blocks[victim].valid != 2 {
		t.Fatalf("victim %d holds %d live pages, want lpns 0 and 1", victim, f.blocks[victim].valid)
	}
	e := &f.chips[0].evac
	copied, moves := e.onCopy, 0
	var failedDst PPA
	e.onCopy = func(ok bool) {
		if moves++; moves == 2 {
			failedDst, ok = e.dst, false
		}
		copied(ok)
	}
	e.start(victim)
	eng.Run()

	if moves != 4 || f.Stats().GCMoves != 4 {
		t.Fatalf("%d moves completed, %d issued: want lpn 0, lpn 1 failed and again, then lpn 0 off the retired block", moves, f.Stats().GCMoves)
	}
	if bm := f.blocks[victim]; bm.state != blockFree || bm.eraseCount != 1 {
		t.Fatalf("victim %d is in state %d after %d erases, want erased once and free", victim, bm.state, bm.eraseCount)
	}
	retired := arr.BlockOf(failedDst)
	if bm := f.blocks[retired]; bm.state != blockBad || bm.valid != 0 {
		t.Fatalf("failed destination's block %d is in state %d with %d live pages, want retired and empty", retired, bm.state, bm.valid)
	}
	for lpn, fill := range []byte{0x40, 0x41, 0x52, 0x53} {
		ppa := f.lookup(int64(lpn))
		if b := arr.BlockOf(ppa); b == victim || b == retired {
			t.Fatalf("lpn %d still maps into block %d", lpn, b)
		}
		if got := mustRead(t, eng, f, int64(lpn)); !bytes.Equal(got, pageData(256, fill)) {
			t.Fatalf("lpn %d does not read back %#x", lpn, fill)
		}
	}
	if got, want := payloadPages(arr), livePages(f); got != want {
		t.Fatalf("chips hold %d payloads, the map %d live pages", got, want)
	}
}
