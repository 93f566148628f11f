package core

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/sched"
	"repro/internal/sim"
)

// StackPages adapts a region of the device under a block-layer stack
// into a PageStore: page 0 of the store is the region's first device
// page.
type StackPages struct {
	stack  *blockdev.Stack
	offset int64
	cap    int64
	// reads and writes tag the page store's requests, when scheduling:
	// a store's page writes can queue apart from its reads.
	reads, writes *sched.Tenant
	rr            int // round-robin submit core
}

var _ PageStore = (*StackPages)(nil)

// NewStackPagesRegion exposes only pages [offset, offset+pages) of the
// device under stack — so a log region can share the device, and
// several stores can carve disjoint regions out of one device behind
// one stack.
func NewStackPagesRegion(stack *blockdev.Stack, offset, pages int64) (*StackPages, error) {
	if offset < 0 || pages <= 0 || offset+pages > stack.Device().Capacity() {
		return nil, fmt.Errorf("core: page region [%d,%d) outside device (%d pages)",
			offset, offset+pages, stack.Device().Capacity())
	}
	return &StackPages{stack: stack, offset: offset, cap: pages}, nil
}

// SetTenants tags every subsequent page read from this page store with
// tenant reads and every page write with tenant writes, routing them
// through the stack's attached scheduler. Flushes stay untagged.
func (s *StackPages) SetTenants(reads, writes *sched.Tenant) { s.reads, s.writes = reads, writes }

// PageSize implements PageStore.
func (s *StackPages) PageSize() int { return s.stack.Device().PageSize() }

func (s *StackPages) check(lpn int64) error {
	if lpn < 0 || lpn >= s.cap {
		return fmt.Errorf("core: page %d out of range (%d)", lpn, s.cap)
	}
	return nil
}

// ReadPage implements PageStore.
func (s *StackPages) ReadPage(p *sim.Proc, lpn int64) ([]byte, error) {
	if err := s.check(lpn); err != nil {
		return nil, err
	}
	return s.stack.SubmitSync(p, s.nextCore(), blockdev.Request{Op: blockdev.OpRead, LPN: lpn + s.offset, Tenant: s.reads})
}

// WritePage implements PageStore.
func (s *StackPages) WritePage(p *sim.Proc, lpn int64, data []byte) error {
	return s.write(p, blockdev.Request{Op: blockdev.OpWrite, LPN: lpn, Data: data})
}

// WriteSealedPage implements PageStore: the request carries the sealed
// bit down to the device. This is the one place a request is sealed
// (scripts/lint.sh).
func (s *StackPages) WriteSealedPage(p *sim.Proc, lpn int64, data []byte) error {
	return s.write(p, blockdev.Request{Op: blockdev.OpWrite, LPN: lpn, Data: data, Sealed: true})
}

// write submits the page write req, addressed in the store's pages.
func (s *StackPages) write(p *sim.Proc, req blockdev.Request) error {
	if err := s.check(req.LPN); err != nil {
		return err
	}
	req.LPN += s.offset
	req.Tenant = s.writes
	_, err := s.stack.SubmitSync(p, s.nextCore(), req)
	return err
}

// Trim implements PageStore.
func (s *StackPages) Trim(lpn int64) error {
	if err := s.check(lpn); err != nil {
		return err
	}
	return s.stack.Device().Trim(lpn + s.offset)
}

// Flush implements PageStore.
func (s *StackPages) Flush(p *sim.Proc) error {
	_, err := s.stack.SubmitSync(p, s.nextCore(), blockdev.Request{Op: blockdev.OpFlush})
	return err
}

func (s *StackPages) nextCore() int {
	s.rr++
	return s.rr
}
