package ftl

import "slices"

// writeBuffer models the controller's RAM write-back cache — the paper's
// first reason random writes got cheap: "high-end SSDs now include safe
// RAM buffers (with batteries) ... a write I/O request completes as soon
// as it hits the cache". Writes coalesce by LPN, so a page rewritten
// while it waits is programmed once. The write-back order is a
// segmented LRU (Karedla, Love & Wherry 1994): an admitted entry waits
// on probation, and a rewrite while it is resident moves it to the back
// of the protected segment, capped at protectedFifths/5 of the buffer,
// whose overflow goes back to probation's back. A background flusher
// writes back probation's front first, so a burst of one-shot writes
// passes through without pushing the rewritten pages out. It keeps one
// write-back per chip in flight, so write-backs stripe over chips. When
// the buffer fills, host writes stall until space frees (back-pressure,
// visible as write tail latency).
//
// A battery-backed buffer (Config.BufferSafe) is where an acknowledged
// write lives until its write-back maps, so admitting a new LPN kills
// the LPN's flash copy at once (supersede): GC stops copying a page the
// device knows is dead. A volatile buffer leaves that copy live until
// the write-back lands, because it is what a crash falls back to.
//
// Admissions are numbered, so a flush can name what it covers — the
// entries admitted before it — and wait for those alone (flush, retire).
// A covered entry keeps its place in its queue when it is rewritten,
// nothing is demoted while one is buffered, and until the last has left
// the flusher takes the older-stamped of the two fronts, so the flush
// drains exactly what it covers, first.
//
// A write-back that parks on a chip for space is in neither the buffer
// nor the map, so the buffer keeps it by LPN until it maps (parked):
// reads are served its bytes from here, and one that is no longer its
// LPN's newest — a newer write-back was taken, or the LPN trimmed —
// lands without being mapped (PageFTL.commitWrite).
type writeBuffer struct {
	f    *PageFTL
	cap  int
	high int // start background flush above this
	low  int // stop background flush at or below this

	entries   lpnTable           // resident entries by LPN
	probation fifo[queued]       // admitted and not rewritten since, oldest stamp first
	protected fifo[queued]       // rewritten while resident, oldest stamp first
	protCap   int                // most entries protected holds once no flush is draining
	protN     int                // resident entries in protected
	writes    uint64             // stamps handed out to queue slots
	parked    map[int64]bufEntry // parked write-backs, the newest taken per LPN

	nextSeq  uint64        // number the next admission gets
	barriers fifo[barrier] // pending flushes, oldest first
	drainTo  uint64        // upTo of the newest barrier
	covered  int           // buffered entries numbered below drainTo

	flushing int
	waiting  fifo[writeJob] // host writes stalled on a full buffer
}

// barrier is one pending flush: it completes when every entry admitted
// before it (seq < upTo) has left the volatile buffer.
type barrier struct {
	upTo uint64
	left int // covered entries still buffered or being programmed
	done func()
}

// fifo is a queue whose pop is O(1): the head index advances, and the
// consumed prefix is reclaimed once it is at least half the slice, so a
// pop costs amortised constant time at any depth.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	q.head++
	if q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:]) // release what the moved and popped slots held
		q.items, q.head = q.items[:n], 0
	}
	return v
}

// live is the queued items, oldest first, in place.
func (q *fifo[T]) live() []T { return q.items[q.head:] }

// keep drops the queued items want rejects, in place and in order.
func (q *fifo[T]) keep(want func(T) bool) {
	n := copy(q.items, slices.DeleteFunc(q.live(), func(v T) bool { return !want(v) }))
	clear(q.items[n:])
	q.items, q.head = q.items[:n], 0
}

// takeAll empties the queue and returns what it held, oldest first.
func (q *fifo[T]) takeAll() []T {
	items := q.live()
	*q = fifo[T]{}
	return items
}

// lpnTable holds the buffer's resident entries by LPN: open addressing
// with linear probing over a power-of-two array that doubles to stay at
// most half full and never shrinks, and deletion by backward shift, so
// it leaves no tombstones. Once it has held as many entries as it ever
// will, the churn of admissions and write-backs never reallocates it; a
// Go map's tables split now and then under the same churn.
type lpnTable struct {
	slots []lpnSlot
	shift uint // 64 − log2(len(slots)): home keeps the hash's top bits
	n     int  // resident entries
}

type lpnSlot struct {
	lpn int64 // freeSlot when the slot is empty
	e   bufEntry
}

const freeSlot = -1

func newLPNTable() lpnTable {
	t := lpnTable{slots: make([]lpnSlot, 8), shift: 61}
	t.clear()
	return t
}

// home is lpn's first probe (Fibonacci hashing).
func (t *lpnTable) home(lpn int64) int {
	return int(uint64(lpn) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the slot holding lpn, or the free slot where its probe
// ends.
func (t *lpnTable) find(lpn int64) int {
	mask := len(t.slots) - 1
	i := t.home(lpn)
	for t.slots[i].lpn != lpn && t.slots[i].lpn != freeSlot {
		i = (i + 1) & mask
	}
	return i
}

func (t *lpnTable) get(lpn int64) (bufEntry, bool) {
	s := &t.slots[t.find(lpn)]
	return s.e, s.lpn == lpn
}

func (t *lpnTable) put(lpn int64, e bufEntry) {
	i := t.find(lpn)
	if t.slots[i].lpn == freeSlot {
		if 2*(t.n+1) > len(t.slots) {
			t.grow()
			i = t.find(lpn)
		}
		t.n++
	}
	t.slots[i] = lpnSlot{lpn: lpn, e: e}
}

// grow doubles the slot array and re-places every entry.
func (t *lpnTable) grow() {
	old := t.slots
	t.slots, t.shift = make([]lpnSlot, 2*len(old)), t.shift-1
	t.clear()
	for _, s := range old {
		if s.lpn != freeSlot {
			t.put(s.lpn, s.e)
		}
	}
}

// del removes lpn, moving back each later entry of the probe run that
// may sit in the freed slot: one whose home is not cyclically after it.
func (t *lpnTable) del(lpn int64) {
	i := t.find(lpn)
	if t.slots[i].lpn != lpn {
		return
	}
	t.n--
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].lpn != freeSlot; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].lpn))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = lpnSlot{lpn: freeSlot}
}

// lpns returns the resident LPNs in ascending order.
func (t *lpnTable) lpns() []int64 {
	var out []int64
	for _, s := range t.slots {
		if s.lpn != freeSlot {
			out = append(out, s.lpn)
		}
	}
	slices.Sort(out)
	return out
}

func (t *lpnTable) clear() {
	for i := range t.slots {
		t.slots[i] = lpnSlot{lpn: freeSlot}
	}
	t.n = 0
}

type bufEntry struct {
	data  []byte
	seq   uint64 // admission number; an overwrite in place keeps it
	stamp uint64 // the entry's queue slot; older slots of its LPN are stale
	prot  bool   // the slot is in the protected queue
}

// queued is a write-back queue slot: lpn's entry if it still carries
// stamp, stale otherwise.
type queued struct {
	lpn   int64
	stamp uint64
}

// protectedFifths is the protected segment's share of the buffer, in
// fifths. Two thirds to nine tenths measured within 1.2 % of each other
// on dev_mixed, so it is not a knob.
const protectedFifths = 4

func newWriteBuffer(f *PageFTL, capPages int) *writeBuffer {
	return &writeBuffer{
		f:         f,
		cap:       capPages,
		high:      capPages * 3 / 4,
		low:       capPages / 2,
		entries:   newLPNTable(),
		probation: fifo[queued]{items: make([]queued, 0, 2*capPages+1)}, // the longest enqueue lets it get
		protected: fifo[queued]{items: make([]queued, 0, 2*capPages+1)},
		protCap:   capPages * protectedFifths / 5,
		parked:    make(map[int64]bufEntry),
	}
}

// get serves a read hit from the buffer, or from a parked write-back.
func (b *writeBuffer) get(lpn int64) ([]byte, bool) {
	e, ok := b.entries.get(lpn)
	if !ok && len(b.parked) > 0 {
		e, ok = b.parked[lpn]
	}
	if !ok {
		return nil, false
	}
	if e.data == nil {
		return nil, true
	}
	return append([]byte(nil), e.data...), true
}

// drop removes a trimmed LPN: there is nothing left of it to make
// durable, so the flushes covering it stop waiting for it.
func (b *writeBuffer) drop(lpn int64) {
	delete(b.parked, lpn)
	if e, ok := b.entries.get(lpn); ok {
		b.take(lpn, e)
		b.f.spare(e.data)
		b.retire(e.seq)
	}
}

// take removes a resident entry from the buffer, on its way to flash or
// to nowhere.
func (b *writeBuffer) take(lpn int64, e bufEntry) {
	b.entries.del(lpn)
	if e.seq < b.drainTo {
		b.covered--
	}
	if e.prot {
		b.protN--
	}
}

// flush registers a barrier over every write admitted so far and drains
// the front of the write-back queue, where those entries stay, until
// they are on their way to flash; done fires when the last of them is
// programmed, trimmed or lost with the power. Later writes, GC copies
// and erases are not its business. It reports false, without keeping
// done, when no admitted write is still volatile.
func (b *writeBuffer) flush(done func()) bool {
	left := b.entries.n + b.flushing
	if left == 0 {
		return false
	}
	b.barriers.push(barrier{upTo: b.nextSeq, left: left, done: done})
	b.drainTo, b.covered = b.nextSeq, b.entries.n
	b.kick()
	return true
}

// retire records that the entry admitted as seq is no longer volatile
// and completes the flushes it was the last holdout of. A barrier covers
// everything the ones before it cover, so they complete in order.
func (b *writeBuffer) retire(seq uint64) {
	open := b.barriers.live()
	for i := len(open) - 1; i >= 0 && open[i].upTo > seq; i-- {
		open[i].left--
	}
	for b.barriers.len() > 0 && b.barriers.live()[0].left == 0 {
		b.barriers.pop().done()
	}
}

// insert admits a host write, coalescing with any buffered version.
// The ack (done) fires at RAM speed unless the buffer is full, in which
// case the write stalls until a flush frees space.
func (b *writeBuffer) insert(lpn int64, data []byte, done func(error)) {
	if e, ok := b.entries.get(lpn); ok {
		// Overwrite in place: no new slot consumed.
		switch {
		case data == nil:
			b.f.spare(e.data)
			e.data = nil
		case e.data == nil:
			e.data = b.f.clone(data)
		default:
			copy(e.data, data)
		}
		b.store(lpn, e)
		b.f.answer(bufferAckLatency, nil, nil, done)
		return
	}
	if b.entries.n >= b.cap {
		b.f.stats.BufferStalls++
		b.waiting.push(writeJob{lpn: lpn, data: b.f.clone(data), done: done})
		b.kick()
		return
	}
	b.supersede(lpn) // first, so the entry copy can reuse the dead page's buffer
	b.admit(lpn, b.f.clone(data))
	b.f.answer(bufferAckLatency, nil, nil, done)
	if b.entries.n > b.high {
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

// admit makes data, which the buffer now owns, the resident version of
// lpn.
func (b *writeBuffer) admit(lpn int64, data []byte) {
	b.store(lpn, bufEntry{data: data, seq: b.nextSeq})
	b.nextSeq++
}

// store makes e lpn's resident entry, just written: unless a pending
// flush covers it, a new admission goes to the back of probation and a
// rewrite to the back of protected. Protected's overflow is demoted to
// probation's back, once no flush has covered entries buffered.
func (b *writeBuffer) store(lpn int64, e bufEntry) {
	switch {
	case e.seq < b.drainTo:
		b.entries.put(lpn, e)
	case e.stamp == 0:
		b.enqueue(&b.probation, lpn, e)
	default:
		if !e.prot {
			e.prot = true
			b.protN++
		}
		b.enqueue(&b.protected, lpn, e)
	}
	for b.covered == 0 && b.protN > b.protCap {
		q, _ := b.front(&b.protected)
		b.protected.pop()
		d, _ := b.entries.get(q.lpn)
		d.prot = false
		b.protN--
		b.enqueue(&b.probation, q.lpn, d)
	}
}

// enqueue makes e lpn's resident entry with a new stamp and a slot at
// the back of q, leaving any older slot of lpn stale. Stale slots go
// once q's backing array, popped prefix included, passes twice the
// buffer, so neither queue outgrows the slots it was built with.
func (b *writeBuffer) enqueue(q *fifo[queued], lpn int64, e bufEntry) {
	b.writes++
	e.stamp = b.writes
	b.entries.put(lpn, e)
	q.push(queued{lpn: lpn, stamp: e.stamp})
	if len(q.items) > 2*b.cap {
		q.keep(b.fresh)
	}
}

// fresh reports whether the queue slot q is still its entry's.
func (b *writeBuffer) fresh(q queued) bool {
	e, ok := b.entries.get(q.lpn)
	return ok && e.stamp == q.stamp
}

// target is the entry count the flusher is currently driving toward:
// zero while a flush still has covered entries buffered or a host write
// is stalled, the low watermark otherwise.
func (b *writeBuffer) target() int {
	if b.covered > 0 || b.waiting.len() > 0 {
		return 0
	}
	return b.low
}

// kick starts flush work up to the fanout limit: one concurrent flush
// program per chip.
func (b *writeBuffer) kick() {
	for b.flushing < b.f.arr.Chips() && b.entries.n > b.target() {
		lpn, ok := b.popOldest()
		if !ok {
			return
		}
		e, _ := b.entries.get(lpn)
		b.take(lpn, e)
		delete(b.parked, lpn) // a parked older write-back is superseded
		b.flushing++
		b.f.writePhys(writeJob{lpn: lpn, data: e.data, seq: e.seq, buffered: true})
	}
}

// park keeps the write-back job, about to wait for space or for the
// retry of its failed program, unless a newer one of its LPN is parked.
// It returns job marked parked: its landing is checked (land).
func (b *writeBuffer) park(job writeJob) writeJob {
	if !job.parked {
		if _, ok := b.parked[job.lpn]; !ok {
			b.parked[job.lpn] = bufEntry{data: job.data, seq: job.seq}
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

// popOldest returns the resident LPN to write back next: probation's
// front, or protected's when probation is empty. While a flush has
// covered entries buffered it is the older-stamped of the two fronts,
// so the covered entries, stamped before any other, leave first.
func (b *writeBuffer) popOldest() (int64, bool) {
	q := &b.probation
	p, ok := b.front(q)
	if r, rok := b.front(&b.protected); rok && (!ok || b.covered > 0 && r.stamp < p.stamp) {
		q, p, ok = &b.protected, r, true
	}
	if ok {
		q.pop()
	}
	return p.lpn, ok
}

// front drops q's stale front slots and returns the fresh one behind
// them, if any, without popping it.
func (b *writeBuffer) front(q *fifo[queued]) (queued, bool) {
	for q.len() > 0 {
		if s := q.live()[0]; b.fresh(s) {
			return s, true
		}
		q.pop()
	}
	return queued{}, false
}

// admitWaiting moves stalled writes into freed slots.
func (b *writeBuffer) admitWaiting() {
	for b.waiting.len() > 0 && b.entries.n < b.cap {
		job := b.waiting.pop()
		if e, ok := b.entries.get(job.lpn); ok {
			b.f.spare(e.data)
			e.data = job.data
			b.store(job.lpn, e)
		} else {
			b.supersede(job.lpn)
			b.admit(job.lpn, job.data)
		}
		b.f.answer(bufferAckLatency, nil, nil, job.done)
	}
}

// dropVolatile models power loss with a volatile buffer: un-flushed
// entries vanish. It returns the lost LPNs in ascending order — the
// list reaches callers of ssd.Device.Crash, and table order must not.
// Pending flushes stop waiting for what was lost: they complete now, or
// with the programs already on their way to flash.
func (b *writeBuffer) dropVolatile() []int64 {
	lost := b.entries.lpns()
	dropped := make([]bufEntry, len(lost))
	for i, lpn := range lost {
		dropped[i], _ = b.entries.get(lpn)
	}
	b.entries.clear()
	b.probation = fifo[queued]{items: b.probation.items[:0]}
	b.protected = fifo[queued]{items: b.protected.items[:0]}
	b.covered, b.protN = 0, 0
	for b.waiting.len() > 0 {
		job := b.waiting.pop()
		b.f.spare(job.data)
		job.done(nil) // acked writes lost silently, like real volatile caches
	}
	for _, e := range dropped {
		b.f.spare(e.data)
		b.retire(e.seq)
	}
	return lost
}
