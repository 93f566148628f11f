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
	if c.PageStateAt(a) != PageProgrammed || c.PayloadPages() != 0 {
		t.Fatalf("after the discard: state %v, PayloadPages %d; want programmed, 0", c.PageStateAt(a), c.PayloadPages())
	}
	c.Program(Addr{Page: 2}, page512(0x55), nil, func(bool) {})
	c.Erase(a.BlockAddr(), func(bool) {})
	eng.Run()
	if n := c.PayloadPages(); n != 0 {
		t.Fatalf("PayloadPages = %d after the block's erase, want 0", n)
	}
}
