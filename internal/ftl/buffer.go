package ftl

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// writeBuffer models the controller's RAM write-back cache — the paper's
// first reason random writes got cheap: "high-end SSDs now include safe
// RAM buffers (with batteries) ... a write I/O request completes as soon
// as it hits the cache". Writes coalesce by LPN, so a page rewritten
// while it waits is programmed once. The write-back order is by write
// frequency: every host write bumps a saturating 8-bit count for its
// LPN, every count halves once per halveEvery × capacity host writes,
// and a resident entry waits on the list of its count's log2, least
// recently written first. A background flusher writes back the front
// of the lowest non-empty list, so a burst of one-shot writes passes
// through without pushing the often-written pages out, and a hot page
// that leaves (a flush writes it back) comes back with its count. The
// flusher keeps the buffer nearly full: it starts two write-backs per
// chip below capacity and stops four below (a small buffer at 3/4 and
// 1/2 full). It keeps at most Chips() write-backs in flight in all, each
// wherever the FTL places it, parked on a chip for space if need be.
// When the buffer fills, host writes stall until space frees
// (back-pressure, visible as write tail latency), and while one waits
// the flusher hands a chip a write-back only if the chip has room and
// none programming (PageFTL.takes): a stalled write is admitted when the
// first write-back lands, and one program per chip lands soonest. What
// no chip can take stays resident, readable and coalescing, instead of
// parking behind one chip's GC.
//
// A battery-backed buffer (Config.BufferSafe) is where an acknowledged
// write lives until its write-back maps, so admitting a new LPN kills
// the LPN's flash copy at once (supersede): GC stops copying a page the
// device knows is dead. A volatile buffer leaves that copy live until
// the write-back lands, because it is what a crash falls back to.
//
// Admissions are numbered, so a flush can name what it covers — the
// entries admitted before it — and wait for those alone (flush, retire).
// Every resident entry is also on a list in admission order, and a
// rewrite keeps its number, so the covered entries are that list's
// front; until the last has left, the flusher takes from there, so the
// flush drains exactly what it covers, first.
//
// A write-back that parks on a chip for space is in neither the buffer
// nor the map, so the buffer keeps it by LPN until it maps (parked):
// reads are served its bytes from here, and one that is no longer its
// LPN's newest — a newer write-back was taken, or the LPN trimmed —
// lands without being mapped (PageFTL.commitWrite).
type writeBuffer struct {
	f    *PageFTL
	cap  int
	high int // start background write-back above this
	low  int // stop background write-back at or below this

	slots    []slot               // slot 0 is the lists' nil, then cap entry slots; free ones chain from free
	free     int32                // first free slot, 0 when none
	resident int                  // entries in slots
	byCount  [countLists]slotList // resident entries by bits.Len8 of their LPN's count, least recently written first
	admitted slotList             // resident entries in admission order
	writes   uint64               // stamps handed out to written entries
	counts   []uint8              // decayed host writes per LPN, allocated at the first write
	index    []int32              // each LPN's resident slot, 0 when none, allocated with counts
	toHalve  int                  // host writes left before every count halves
	parked   map[int64]bufEntry   // parked write-backs, the newest taken per LPN

	nextSeq  uint64              // number the next admission gets
	barriers sim.Queue[barrier]  // pending flushes, oldest first
	drainTo  uint64              // upTo of the newest barrier
	covered  int                 // buffered entries numbered below drainTo
	flushing int                 // write-backs in flight
	waiting  sim.Queue[writeJob] // host writes stalled on a full buffer
}

// halveEvery sets how often every LPN's count halves: once per
// halveEvery × capacity host writes. A cache model of dev_mixed's Zipf
// writes read flat from 100 × capacity to no decay at all, so it is a
// constant, not a knob.
const halveEvery = 100

// countLists is one list per value of bits.Len8: 0 to 8.
const countLists = 9

// barrier is one pending flush: it completes when every entry admitted
// before it (seq < upTo) has left the volatile buffer.
type barrier struct {
	upTo uint64
	left int // covered entries still buffered or being programmed
	done func()
}

// bufEntry is a buffered version of an LPN: a resident entry's, or a
// parked write-back's.
type bufEntry struct {
	data   []byte
	seq    uint64 // admission number; an overwrite in place keeps it
	sealed bool   // data is the host's sealed buffer (PageFTL.WriteSealed)
}

// slot holds one resident entry, linked into its count list and into
// the admission order.
type slot struct {
	bufEntry
	lpn   int64
	stamp uint64  // when it was last written: its count list's order
	links [2]link // by countLink and admissionLink
}

// slotList is a doubly linked list threaded through writeBuffer.slots by
// index; 0 is nil, so the zero list is empty.
type slotList struct{ head, tail int32 }

type link struct{ prev, next int32 }

// The two lists a resident entry is on, each through its own link.
const (
	countLink     = iota // on byCount; a free slot's chain to the next
	admissionLink        // on admitted
)

func newWriteBuffer(f *PageFTL, capPages int) *writeBuffer {
	fan := f.arr.Chips()
	b := &writeBuffer{
		f:       f,
		cap:     capPages,
		high:    max(capPages-2*fan, capPages*3/4),
		low:     max(capPages-4*fan, capPages/2),
		slots:   make([]slot, capPages+1),
		toHalve: halveEvery * capPages,
		parked:  make(map[int64]bufEntry),
	}
	for i := int32(capPages); i > 0; i-- {
		b.release(i)
	}
	return b
}

// pushBack links slot i at the back of l through its link k.
func (b *writeBuffer) pushBack(l *slotList, k int, i int32) {
	b.slots[i].links[k] = link{prev: l.tail}
	if l.tail == 0 {
		l.head = i
	} else {
		b.slots[l.tail].links[k].next = i
	}
	l.tail = i
}

// unlink takes slot i, linked through k, out of l.
func (b *writeBuffer) unlink(l *slotList, k int, i int32) {
	n := b.slots[i].links[k]
	if n.prev == 0 {
		l.head = n.next
	} else {
		b.slots[n.prev].links[k].next = n.next
	}
	if n.next == 0 {
		l.tail = n.prev
	} else {
		b.slots[n.next].links[k].prev = n.prev
	}
}

// countList is the list resident slot i is on: its LPN's count's.
func (b *writeBuffer) countList(i int32) *slotList {
	return &b.byCount[bits.Len8(b.counts[b.slots[i].lpn])]
}

// touch stamps resident slot i as just written and links it at the back
// of its count list.
func (b *writeBuffer) touch(i int32) {
	b.writes++
	b.slots[i].stamp = b.writes
	b.pushBack(b.countList(i), countLink, i)
}

// count records a host write of lpn: its count goes up by one, to at
// most 255, and once per halveEvery × cap host writes every count
// halves. A resident lpn must be off its count list meanwhile.
func (b *writeBuffer) count(lpn int64) {
	if b.counts == nil {
		b.counts = make([]uint8, b.f.Capacity())
		b.index = make([]int32, b.f.Capacity())
	}
	if b.counts[lpn] < math.MaxUint8 {
		b.counts[lpn]++
	}
	if b.toHalve--; b.toHalve == 0 {
		b.halve()
		b.toHalve = halveEvery * b.cap
	}
}

// halve halves every count. Each count list from 2 up becomes the list
// below it whole; lists 0 and 1 hold the counts that halve to 0, so
// they merge into list 0 in last-write order.
func (b *writeBuffer) halve() {
	for i := range b.counts {
		b.counts[i] >>= 1
	}
	zero, one := b.byCount[0], b.byCount[1]
	copy(b.byCount[1:], b.byCount[2:])
	b.byCount[0], b.byCount[countLists-1] = slotList{}, slotList{}
	for zero.head != 0 || one.head != 0 {
		from := &zero
		if zero.head == 0 || one.head != 0 && b.slots[one.head].stamp < b.slots[zero.head].stamp {
			from = &one
		}
		i := from.head
		b.unlink(from, countLink, i)
		b.pushBack(&b.byCount[0], countLink, i)
	}
}

// slotOf returns lpn's resident slot, 0 when lpn is not buffered.
func (b *writeBuffer) slotOf(lpn int64) int32 {
	if b.index == nil {
		return 0
	}
	return b.index[lpn]
}

// get serves a read hit from the buffer, or from a parked write-back.
// It copies an entry the buffer owns, since a rewrite overwrites that in
// place, and shares a sealed one, which a rewrite replaces.
func (b *writeBuffer) get(lpn int64) ([]byte, bool) {
	var e bufEntry
	if i := b.slotOf(lpn); i != 0 {
		e = b.slots[i].bufEntry
	} else if p, ok := b.parked[lpn]; ok {
		e = p
	} else {
		return nil, false
	}
	if e.data == nil || e.sealed {
		return e.data, true
	}
	return append([]byte(nil), e.data...), true
}

// drop removes a trimmed LPN: there is nothing left of it to make
// durable, so the flushes covering it stop waiting for it.
func (b *writeBuffer) drop(lpn int64) {
	delete(b.parked, lpn)
	if i := b.slotOf(lpn); i != 0 {
		e := b.take(i)
		b.f.spareEntry(e.data, e.sealed)
		b.retire(e.seq)
	}
}

// take removes resident slot i from the buffer, on its way to flash or
// to nowhere, and returns what it held.
func (b *writeBuffer) take(i int32) slot {
	s := b.slots[i]
	b.unlink(b.countList(i), countLink, i)
	b.unlink(&b.admitted, admissionLink, i)
	b.index[s.lpn] = 0
	b.resident--
	b.release(i)
	if s.seq < b.drainTo {
		b.covered--
	}
	return s
}

// release puts slot i on the free chain, holding nothing.
func (b *writeBuffer) release(i int32) {
	b.slots[i] = slot{links: [2]link{countLink: {next: b.free}}}
	b.free = i
}

// flush registers a barrier over every write admitted so far and drains
// the front of the admission order, where those entries stay, until
// they are on their way to flash; done fires when the last of them is
// programmed, trimmed or lost with the power. Later writes, GC copies
// and erases are not its business. It reports false, without keeping
// done, when no admitted write is still volatile.
func (b *writeBuffer) flush(done func()) bool {
	left := b.resident + b.flushing
	if left == 0 {
		return false
	}
	b.barriers.Push(barrier{upTo: b.nextSeq, left: left, done: done})
	b.drainTo, b.covered = b.nextSeq, b.resident
	b.kick()
	return true
}

// retire records that the entry admitted as seq is no longer volatile
// and completes the flushes it was the last holdout of. A barrier covers
// everything the ones before it cover, so they complete in order.
func (b *writeBuffer) retire(seq uint64) {
	for i := b.barriers.Len() - 1; i >= 0 && b.barriers.At(i).upTo > seq; i-- {
		b.barriers.At(i).left--
	}
	for b.barriers.Len() > 0 && b.barriers.At(0).left == 0 {
		b.barriers.Pop().done()
	}
}

// insert admits a host write (sealed: PageFTL.WriteSealed), coalescing
// with any buffered version. The ack (done) fires at RAM speed unless
// the buffer is full, in which case the write stalls until a flush
// frees space.
func (b *writeBuffer) insert(lpn int64, data []byte, sealed bool, done func(error)) {
	if i := b.slotOf(lpn); i != 0 {
		// Overwrite in place: no new slot consumed.
		b.unlink(b.countList(i), countLink, i)
		b.count(lpn)
		e := &b.slots[i]
		if data != nil && e.data != nil && !sealed && !e.sealed {
			copy(e.data, data)
		} else {
			// A sealed buffer is replaced, never written into.
			b.f.spareEntry(e.data, e.sealed)
			e.data, e.sealed = b.f.entry(data, sealed), sealed
		}
		b.touch(i)
		b.f.answer(bufferAckLatency, nil, nil, done)
		return
	}
	b.count(lpn)
	if b.resident >= b.cap {
		b.f.stats.BufferStalls++
		b.waiting.Push(writeJob{lpn: lpn, data: b.f.entry(data, sealed), sealed: sealed, done: done})
		b.kick()
		return
	}
	b.supersede(lpn) // first, so the entry copy can reuse the dead page's buffer
	b.admit(lpn, b.f.entry(data, sealed), sealed)
	b.f.answer(bufferAckLatency, nil, nil, done)
	if b.resident > b.high {
		b.kick()
	}
}

func cloneBytes(d []byte) []byte {
	if d == nil {
		return nil
	}
	return append([]byte(nil), d...)
}

// supersede kills lpn's flash copy as a safe buffer acknowledges a
// newer version, a trim the host need not send: reads find the buffered
// entry first, and its write-back maps with no old copy to invalidate.
func (b *writeBuffer) supersede(lpn int64) {
	if b.f.cfg.BufferSafe {
		b.f.unmap(lpn)
	}
}

// admit makes data, which the buffer now owns unless it is sealed, the
// resident version of lpn, in a free slot at the back of the admission
// order and of its count list.
func (b *writeBuffer) admit(lpn int64, data []byte, sealed bool) {
	i := b.free
	b.free = b.slots[i].links[countLink].next
	b.slots[i] = slot{bufEntry: bufEntry{data: data, seq: b.nextSeq, sealed: sealed}, lpn: lpn}
	b.nextSeq++
	b.index[lpn] = i
	b.resident++
	b.pushBack(&b.admitted, admissionLink, i)
	b.touch(i)
}

// target is the entry count the flusher is currently driving toward:
// zero while a flush still has covered entries buffered or a host write
// is stalled, the low watermark otherwise.
func (b *writeBuffer) target() int {
	if b.covered > 0 || b.waiting.Len() > 0 {
		return 0
	}
	return b.low
}

// stalled reports whether a host write waits on the full buffer.
func (b *writeBuffer) stalled() bool { return b.waiting.Len() > 0 }

// kick starts write-backs until Chips() of them are in flight. While a
// host write is stalled it starts one only when a chip takes it at once
// (PageFTL.writeBackRoom); otherwise the entry stays resident while a
// write-back is in flight or a chip collects, each of which kicks again
// when it lands or ends. With neither, nothing would: GC starts where
// garbage appears, so no chip below its low watermark holds a victim
// it is not collecting, and the write-back goes wherever writePhys
// sends it — parked on a chip whose victim appeared a moment ago, which
// starts its pass, or onto a GC frontier in reroute's emergency.
func (b *writeBuffer) kick() {
	for b.flushing < b.f.arr.Chips() && b.resident > b.target() {
		if b.stalled() && !b.f.writeBackRoom() && (b.flushing > 0 || b.f.gcBusy > 0) {
			return
		}
		e := b.take(b.next())
		delete(b.parked, e.lpn) // a parked older write-back is superseded
		b.flushing++
		b.f.writePhys(writeJob{lpn: e.lpn, data: e.data, seq: e.seq, buffered: true, sealed: e.sealed})
	}
}

// next returns the resident slot to write back next: the front of the
// lowest non-empty count list, or of the admission order while a flush
// has covered entries buffered, since those are its front. The buffer
// must hold an entry.
func (b *writeBuffer) next() int32 {
	if b.covered > 0 {
		return b.admitted.head
	}
	for _, l := range b.byCount {
		if l.head != 0 {
			return l.head
		}
	}
	panic("ftl: write-back from an empty buffer")
}

// park keeps the write-back job, about to wait for space or for the
// retry of its failed program, unless a newer one of its LPN is parked.
// It returns job marked parked: its landing is checked (land).
func (b *writeBuffer) park(job writeJob) writeJob {
	if !job.parked {
		if _, ok := b.parked[job.lpn]; !ok {
			b.parked[job.lpn] = bufEntry{data: job.data, seq: job.seq, sealed: job.sealed}
		}
		job.parked = true
	}
	return job
}

// land reports whether the parked write-back job, reaching its page, is
// still its LPN's newest, and forgets it if so: the map points at it
// now.
func (b *writeBuffer) land(job writeJob) bool {
	if w, ok := b.parked[job.lpn]; !ok || w.seq != job.seq {
		return false
	}
	delete(b.parked, job.lpn)
	return true
}

// written completes the write-back of the entry admitted as seq.
func (b *writeBuffer) written(seq uint64) {
	b.flushing--
	b.admitWaiting()
	b.kick()
	b.retire(seq)
}

// admitWaiting moves stalled writes into freed slots. Their LPNs' counts
// went up when they arrived.
func (b *writeBuffer) admitWaiting() {
	for b.waiting.Len() > 0 && b.resident < b.cap {
		job := b.waiting.Pop()
		if i := b.slotOf(job.lpn); i != 0 {
			e := &b.slots[i]
			b.f.spareEntry(e.data, e.sealed)
			e.data, e.sealed = job.data, job.sealed
			b.unlink(b.countList(i), countLink, i)
			b.touch(i)
		} else {
			b.supersede(job.lpn)
			b.admit(job.lpn, job.data, job.sealed)
		}
		b.f.answer(bufferAckLatency, nil, nil, job.done)
	}
}

// lpns returns the resident LPNs in ascending order.
func (b *writeBuffer) lpns() []int64 {
	var out []int64
	for i := b.admitted.head; i != 0; i = b.slots[i].links[admissionLink].next {
		out = append(out, b.slots[i].lpn)
	}
	slices.Sort(out)
	return out
}

// dropVolatile models power loss with a volatile buffer: un-flushed
// entries vanish. It returns the lost LPNs in ascending order, as
// callers of ssd.Device.Crash receive them.
// Pending flushes stop waiting for what was lost: they complete now, or
// with the programs already on their way to flash.
func (b *writeBuffer) dropVolatile() []int64 {
	lost := b.lpns()
	dropped := make([]bufEntry, len(lost))
	for k, lpn := range lost {
		dropped[k] = b.take(b.index[lpn]).bufEntry
	}
	for b.waiting.Len() > 0 {
		job := b.waiting.Pop()
		b.f.spareEntry(job.data, job.sealed)
		job.done(nil) // acked writes lost silently, like real volatile caches
	}
	for _, e := range dropped {
		b.f.spareEntry(e.data, e.sealed)
		b.retire(e.seq)
	}
	return lost
}
