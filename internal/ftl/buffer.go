package ftl

import "slices"

// writeBuffer models the controller's RAM write-back cache — the paper's
// first reason random writes got cheap: "high-end SSDs now include safe
// RAM buffers (with batteries) ... a write I/O request completes as soon
// as it hits the cache". Writes coalesce by LPN; a background flusher
// drains oldest-first with bounded fanout so flushes stripe over chips;
// when the buffer fills, host writes stall until space frees
// (back-pressure, visible as write tail latency).
//
// Admissions are numbered, so a flush can name what it covers — the
// entries admitted before it — and wait for those alone (flush, retire).
type writeBuffer struct {
	f    *PageFTL
	cap  int
	high int // start background flush above this
	low  int // stop background flush at or below this

	entries map[int64]bufEntry
	fifo    fifo[int64] // admission order; may contain superseded lpns

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

// takeAll empties the queue and returns what it held, oldest first.
func (q *fifo[T]) takeAll() []T {
	items := q.live()
	*q = fifo[T]{}
	return items
}

type bufEntry struct {
	data []byte
	seq  uint64 // admission number; an overwrite in place keeps it
}

func newWriteBuffer(f *PageFTL, capPages int) *writeBuffer {
	return &writeBuffer{
		f:       f,
		cap:     capPages,
		high:    capPages * 3 / 4,
		low:     capPages / 2,
		entries: make(map[int64]bufEntry),
	}
}

// get serves a read hit from the buffer.
func (b *writeBuffer) get(lpn int64) ([]byte, bool) {
	e, ok := b.entries[lpn]
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
	if e, ok := b.entries[lpn]; ok {
		b.take(lpn, e)
		b.f.spare(e.data)
		b.retire(e.seq)
	}
}

// take removes a resident entry from the buffer, on its way to flash or
// to nowhere.
func (b *writeBuffer) take(lpn int64, e bufEntry) {
	delete(b.entries, lpn)
	if e.seq < b.drainTo {
		b.covered--
	}
}

// flush registers a barrier over every write admitted so far and drains
// oldest-first until those are on their way to flash; done fires when
// the last of them is programmed, trimmed or lost with the power. Later
// writes, GC copies and erases are not its business. It reports false,
// without keeping done, when no admitted write is still volatile.
func (b *writeBuffer) flush(done func()) bool {
	left := len(b.entries) + b.flushing
	if left == 0 {
		return false
	}
	b.barriers.push(barrier{upTo: b.nextSeq, left: left, done: done})
	b.drainTo, b.covered = b.nextSeq, len(b.entries)
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
	if e, ok := b.entries[lpn]; ok {
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
		b.entries[lpn] = e
		b.f.answer(bufferAckLatency, nil, nil, done)
		return
	}
	if len(b.entries) >= b.cap {
		b.f.stats.BufferStalls++
		b.waiting.push(writeJob{lpn: lpn, data: b.f.clone(data), done: done})
		b.kick()
		return
	}
	b.admit(lpn, b.f.clone(data))
	b.f.answer(bufferAckLatency, nil, nil, done)
	if len(b.entries) > b.high {
		b.kick()
	}
}

func cloneBytes(d []byte) []byte {
	if d == nil {
		return nil
	}
	return append([]byte(nil), d...)
}

// admit makes data, which the buffer now owns, the resident version of
// lpn.
func (b *writeBuffer) admit(lpn int64, data []byte) {
	b.entries[lpn] = bufEntry{data: data, seq: b.nextSeq}
	b.nextSeq++
	b.fifo.push(lpn)
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
	for b.flushing < b.f.arr.Chips() && len(b.entries) > b.target() {
		lpn, ok := b.popOldest()
		if !ok {
			return
		}
		e := b.entries[lpn]
		b.take(lpn, e)
		b.flushing++
		b.f.writePhys(writeJob{lpn: lpn, data: e.data, seq: e.seq, buffered: true})
	}
}

// written completes the write-back of the entry admitted as seq.
func (b *writeBuffer) written(seq uint64) {
	b.flushing--
	b.admitWaiting()
	b.kick()
	b.retire(seq)
}

// popOldest returns the oldest LPN still resident in the buffer.
func (b *writeBuffer) popOldest() (int64, bool) {
	for b.fifo.len() > 0 {
		lpn := b.fifo.pop()
		if _, ok := b.entries[lpn]; ok {
			return lpn, true
		}
	}
	return 0, false
}

// admitWaiting moves stalled writes into freed slots.
func (b *writeBuffer) admitWaiting() {
	for b.waiting.len() > 0 && len(b.entries) < b.cap {
		job := b.waiting.pop()
		if e, ok := b.entries[job.lpn]; ok {
			b.f.spare(e.data)
			e.data = job.data
			b.entries[job.lpn] = e
		} else {
			b.admit(job.lpn, job.data)
		}
		b.f.answer(bufferAckLatency, nil, nil, job.done)
	}
}

// dropVolatile models power loss with a volatile buffer: un-flushed
// entries vanish. It returns the lost LPNs in ascending order — the
// list reaches callers of ssd.Device.Crash, and map order must not.
// Pending flushes stop waiting for what was lost: they complete now, or
// with the programs already on their way to flash.
func (b *writeBuffer) dropVolatile() []int64 {
	var lost []int64
	for lpn := range b.entries {
		lost = append(lost, lpn)
	}
	slices.Sort(lost)
	dropped := b.entries
	b.entries = make(map[int64]bufEntry)
	b.fifo = fifo[int64]{}
	b.covered = 0
	for b.waiting.len() > 0 {
		job := b.waiting.pop()
		b.f.spare(job.data)
		job.done(nil) // acked writes lost silently, like real volatile caches
	}
	for _, lpn := range lost {
		b.f.spare(dropped[lpn].data)
		b.retire(dropped[lpn].seq)
	}
	return lost
}
