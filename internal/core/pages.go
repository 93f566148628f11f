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
	tenant *sched.Tenant // tag for every request, when scheduling
	rr     int           // round-robin submit core for async writes
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

// SetTenant tags every subsequent request from this page store with
// tenant t, routing it through the stack's attached scheduler.
func (s *StackPages) SetTenant(t *sched.Tenant) { s.tenant = t }

// PageSize implements PageStore.
func (s *StackPages) PageSize() int { return s.stack.Device().PageSize() }

// Capacity implements PageStore.
func (s *StackPages) Capacity() int64 { return s.cap }

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
	return s.stack.ReadSyncAs(p, s.tenant, s.nextCore(), lpn+s.offset)
}

// WritePage implements PageStore.
func (s *StackPages) WritePage(p *sim.Proc, lpn int64, data []byte) error {
	if err := s.check(lpn); err != nil {
		return err
	}
	return s.stack.WriteSyncAs(p, s.tenant, s.nextCore(), lpn+s.offset, data)
}

// WritePageAsync implements PageStore.
func (s *StackPages) WritePageAsync(lpn int64, data []byte, done func(error)) {
	if err := s.check(lpn); err != nil {
		done(err)
		return
	}
	s.stack.Submit(s.nextCore(), blockdev.Request{
		Op: blockdev.OpWrite, LPN: lpn + s.offset, Data: data, Tenant: s.tenant,
		Done: func(_ []byte, err error) { done(err) },
	})
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
	return s.stack.FlushSync(p, s.nextCore())
}

func (s *StackPages) nextCore() int {
	s.rr++
	return s.rr
}
