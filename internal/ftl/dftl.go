package ftl

import (
	"container/list"

	"repro/internal/sim"
)

// DFTL wraps a PageFTL with a demand-paged mapping table (Gupta et al.,
// ASPLOS 2009 — cited by the paper as the way controllers afford page
// mapping without controller RAM for the full map). Mapping lookups hit
// a cached mapping table (CMT); misses charge a flash read of the
// translation page, and evicting a dirty CMT entry charges a flash
// program. Translation traffic shares the same chips and channels as
// data, so a cold mapping cache is visible as extra latency.
type DFTL struct {
	inner *PageFTL

	entriesPerPage int64 // mapping entries per translation page
	capacity       int   // CMT capacity in translation pages

	lru   *list.List // front = most recent; values are int64 tpns
	index map[int64]*list.Element
	dirty map[int64]bool
}

var _ FTL = (*DFTL)(nil)

// NewDFTL builds a DFTL view over a PageFTL. cmtPages is how many
// translation pages fit in controller RAM (each covers
// pageSize/8 logical pages).
func NewDFTL(inner *PageFTL, cmtPages int) *DFTL {
	if cmtPages < 1 {
		cmtPages = 1
	}
	return &DFTL{
		inner:          inner,
		entriesPerPage: int64(inner.PageSize() / 8),
		capacity:       cmtPages,
		lru:            list.New(),
		index:          make(map[int64]*list.Element),
		dirty:          make(map[int64]bool),
	}
}

// Capacity implements FTL.
func (d *DFTL) Capacity() int64 { return d.inner.Capacity() }

// PageSize implements FTL.
func (d *DFTL) PageSize() int { return d.inner.PageSize() }

// Stats implements FTL: translation counters live on the inner stats.
func (d *DFTL) Stats() Stats { return d.inner.stats }

// Flush implements FTL.
func (d *DFTL) Flush(done func()) { d.inner.Flush(done) }

// Trim implements FTL.
func (d *DFTL) Trim(lpn int64) error {
	if err := d.inner.checkLPN(lpn); err != nil {
		return err
	}
	if _, ok := d.index[lpn/d.entriesPerPage]; ok {
		d.dirty[lpn/d.entriesPerPage] = true
	}
	return d.inner.Trim(lpn)
}

// ReadLPN implements FTL: translation first, then the data read.
func (d *DFTL) ReadLPN(lpn int64, done func([]byte, error)) {
	if err := d.inner.checkLPN(lpn); err != nil {
		done(nil, err)
		return
	}
	d.ensure(lpn, false, func() { d.inner.ReadLPN(lpn, done) })
}

// WriteLPN implements FTL: the translation page becomes dirty.
func (d *DFTL) WriteLPN(lpn int64, data []byte, done func(error)) {
	if err := d.inner.checkLPN(lpn); err != nil {
		done(err)
		return
	}
	d.ensure(lpn, true, func() { d.inner.WriteLPN(lpn, data, done) })
}

// ensure loads the translation page covering lpn into the CMT, charging
// flash traffic on miss, then runs next.
func (d *DFTL) ensure(lpn int64, write bool, next func()) {
	tpn := lpn / d.entriesPerPage
	if el, ok := d.index[tpn]; ok {
		d.lru.MoveToFront(el)
		if write {
			d.dirty[tpn] = true
		}
		next()
		return
	}
	evict := func(then func()) { then() }
	if d.lru.Len() >= d.capacity {
		tail := d.lru.Back()
		victim := tail.Value.(int64)
		d.lru.Remove(tail)
		delete(d.index, victim)
		if d.dirty[victim] {
			delete(d.dirty, victim)
			evict = func(then func()) { d.chargeTransWrite(victim, then) }
		}
	}
	evict(func() {
		d.chargeTransRead(tpn, func() {
			d.index[tpn] = d.lru.PushFront(tpn)
			if write {
				d.dirty[tpn] = true
			}
			next()
		})
	})
}

// transChip spreads translation pages round-robin over chips.
func (d *DFTL) transChip(tpn int64) int {
	return int(tpn % int64(d.inner.arr.Chips()))
}

// chargeTransRead occupies the chip and channel like a real page read of
// the translation page.
func (d *DFTL) chargeTransRead(tpn int64, done func()) {
	d.inner.stats.MapReads++
	arr := d.inner.arr
	chip := d.transChip(tpn)
	spec := arr.Spec()
	lun := arr.Chip(chip).LUNServer(0)
	ch := arr.ChannelOf(chip)
	lun.Use(spec.Timing.ReadPage, "map-read", func(_, end sim.Time) {
		ch.TransferFrom(end, arr.PageSize(), "map-xfer", func(_, _ sim.Time) { done() })
	})
}

// chargeTransWrite occupies the channel and chip like a real page
// program of a dirty translation page.
func (d *DFTL) chargeTransWrite(tpn int64, done func()) {
	d.inner.stats.MapWrites++
	arr := d.inner.arr
	chip := d.transChip(tpn)
	spec := arr.Spec()
	lun := arr.Chip(chip).LUNServer(0)
	ch := arr.ChannelOf(chip)
	end := ch.Transfer(arr.PageSize(), "map-xfer", nil)
	lun.UseFrom(end, spec.Timing.ProgramPage, "map-prog", func(_, _ sim.Time) { done() })
}
