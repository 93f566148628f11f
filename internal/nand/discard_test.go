package nand

import (
	"bytes"
	"testing"
)

// A read takes the page's payload when it is issued: a Discard while the
// read is in flight does not change what it returns, a read issued after
// the Discard gets no payload from the still-programmed page, and the
// chip's payload count follows the page through Discard and erase.
func TestReadIssuedBeforeDiscardKeepsPayload(t *testing.T) {
	eng, c := newTestChip(t)
	a := Addr{}
	want := page512(0x44)
	c.Program(a, want, nil, func(bool) {})
	c.Program(Addr{Page: 1}, nil, nil, func(bool) {})
	eng.Run()
	if n := c.PayloadPages(); n != 1 {
		t.Fatalf("PayloadPages = %d after one program with a payload and one without, want 1", n)
	}
	var before, after ReadResult
	c.Read(a, func(r ReadResult, err error) {
		if err != nil {
			t.Errorf("read issued before the discard: %v", err)
		}
		before = r
	})
	c.Discard(a)
	c.Read(a, func(r ReadResult, err error) {
		if err != nil {
			t.Errorf("read issued after the discard: %v", err)
		}
		after = r
	})
	eng.Run()
	if !bytes.Equal(before.Data, want) {
		t.Fatalf("a read issued before the discard returned %d bytes, want the programmed page", len(before.Data))
	}
	if after.Data != nil {
		t.Fatal("a read issued after the discard still returned the payload")
	}
	if !programmed(c, a) || c.PayloadPages() != 0 {
		t.Fatalf("after the discard: programmed %v, PayloadPages %d; want programmed, 0", programmed(c, a), c.PayloadPages())
	}
	c.Program(Addr{Page: 2}, page512(0x55), nil, func(bool) {})
	erase(c, a.BlockAddr(), func(bool) {})
	eng.Run()
	if n := c.PayloadPages(); n != 0 {
		t.Fatalf("PayloadPages = %d after the block's erase, want 0", n)
	}
}

// Discard hands back the buffer it drops, once the chip is done with it:
// nil while the page's program or copyback is in flight (its caller may
// retry the program from that buffer), the page's own buffer after, and
// nil again once dropped.
func TestDiscardReturnsPayloadOnceProgrammed(t *testing.T) {
	eng, c := newTestChip(t)
	c.Program(Addr{}, page512(0x61), nil, func(bool) {})
	if got := c.Discard(Addr{}); got != nil {
		t.Fatal("Discard handed back a buffer whose program is in flight")
	}
	want := page512(0x62)
	c.Program(Addr{Page: 1}, want, nil, func(bool) {})
	eng.Run()
	c.CopyBack(Addr{Page: 1}, Addr{Page: 2}, func(bool) {})
	if got := c.Discard(Addr{Page: 2}); got != nil {
		t.Fatal("Discard handed back a buffer whose copyback is in flight")
	}
	eng.Run()
	if got := c.Discard(Addr{Page: 1}); len(got) == 0 || &got[0] != &want[0] {
		t.Fatal("Discard of a programmed page did not hand back the buffer its program kept")
	}
	if got := c.Discard(Addr{Page: 1}); got != nil {
		t.Fatal("a second Discard handed the buffer back again")
	}
	if n := c.PayloadPages(); n != 0 {
		t.Fatalf("PayloadPages = %d after every page was discarded, want 0", n)
	}
}
