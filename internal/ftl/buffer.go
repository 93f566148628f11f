package ftl

import "slices"

// writeBuffer models the controller's RAM write-back cache — the paper's
// first reason random writes got cheap: "high-end SSDs now include safe
// RAM buffers (with batteries) ... a write I/O request completes as soon
// as it hits the cache". Writes coalesce by LPN; a background flusher
// drains oldest-first with bounded fanout so flushes stripe over chips;
// when the buffer fills, host writes stall until space frees
// (back-pressure, visible as write tail latency).
type writeBuffer struct {
	f    *PageFTL
	cap  int
	high int // start background flush above this
	low  int // stop background flush at or below this

	entries map[int64]*bufEntry
	fifo    fifo[int64] // admission order; may contain superseded lpns

	flushing int
	draining bool
	waiting  fifo[writeJob] // host writes stalled on a full buffer
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

// takeAll empties the queue and returns what it held, oldest first.
func (q *fifo[T]) takeAll() []T {
	items := q.items[q.head:]
	*q = fifo[T]{}
	return items
}

type bufEntry struct {
	data  []byte
	hasIt bool // distinguishes nil-payload entries from absence
}

func newWriteBuffer(f *PageFTL, capPages int) *writeBuffer {
	return &writeBuffer{
		f:       f,
		cap:     capPages,
		high:    capPages * 3 / 4,
		low:     capPages / 2,
		entries: make(map[int64]*bufEntry),
	}
}

func (b *writeBuffer) empty() bool {
	return len(b.entries) == 0 && b.flushing == 0 && b.waiting.len() == 0
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

// drop removes a trimmed LPN.
func (b *writeBuffer) drop(lpn int64) {
	delete(b.entries, lpn)
}

// insert admits a host write, coalescing with any buffered version.
// The ack (done) fires at RAM speed unless the buffer is full, in which
// case the write stalls until a flush frees space.
func (b *writeBuffer) insert(lpn int64, data []byte, done func(error)) {
	if e, ok := b.entries[lpn]; ok {
		// Overwrite in place: no new slot consumed.
		if data != nil {
			e.data = append(e.data[:0], data...)
		} else {
			e.data = nil
		}
		b.f.eng.After(bufferAckLatency, func() { done(nil) })
		return
	}
	if len(b.entries) >= b.cap {
		b.f.stats.BufferStalls++
		b.waiting.push(writeJob{lpn: lpn, data: cloneBytes(data), done: func(_ PPA, err error) { done(err) }})
		b.kick()
		return
	}
	b.admit(lpn, data)
	b.f.eng.After(bufferAckLatency, func() { done(nil) })
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

func (b *writeBuffer) admit(lpn int64, data []byte) {
	b.entries[lpn] = &bufEntry{data: cloneBytes(data), hasIt: true}
	b.fifo.push(lpn)
}

// target is the entry count the flusher is currently driving toward.
func (b *writeBuffer) target() int {
	if b.draining || b.waiting.len() > 0 {
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
		delete(b.entries, lpn)
		b.flushing++
		b.f.writePhys(writeJob{lpn: lpn, data: e.data, done: func(_ PPA, err error) {
			b.flushing--
			b.admitWaiting()
			if b.draining && len(b.entries) == 0 && b.flushing == 0 {
				b.draining = false
			}
			b.kick()
			if b.empty() {
				b.f.wakeFlushWaiters()
			}
			_ = err // flash-level failures were already retried by the FTL
		}})
	}
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
			e.data = cloneBytes(job.data)
		} else {
			b.admit(job.lpn, job.data)
		}
		done := job.done
		b.f.eng.After(bufferAckLatency, func() { done(InvalidPPA, nil) })
	}
}

// drainAll flushes everything (Flush / shutdown).
func (b *writeBuffer) drainAll() {
	b.draining = true
	b.kick()
	if len(b.entries) == 0 {
		b.draining = false
	}
}

// dropVolatile models power loss with a volatile buffer: un-flushed
// entries vanish. It returns the lost LPNs in ascending order — the
// list reaches callers of ssd.Device.Crash, and map order must not.
func (b *writeBuffer) dropVolatile() []int64 {
	var lost []int64
	for lpn := range b.entries {
		lost = append(lost, lpn)
	}
	slices.Sort(lost)
	b.entries = make(map[int64]*bufEntry)
	b.fifo = fifo[int64]{}
	for b.waiting.len() > 0 {
		b.waiting.pop().done(InvalidPPA, nil) // acked writes lost silently, like real volatile caches
	}
	return lost
}
