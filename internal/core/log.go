package core

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/pcm"
	"repro/internal/sched"
	"repro/internal/sim"
)

// PCMLog is the progressive synchronous domain: an append-only byte log
// in PCM on the memory bus. Append is a CPU store; Sync is a persist
// barrier — tens of nanoseconds to single microseconds, against the
// block path's page write + flush.
type PCMLog struct {
	bus  *pcm.MemBus
	base int64
	size int64

	head int64 // truncated prefix
	tail int64
}

var _ LogDevice = (*PCMLog)(nil)

// NewPCMLog carves [base, base+size) out of the PCM device as a log.
func NewPCMLog(bus *pcm.MemBus, base, size int64) (*PCMLog, error) {
	if size <= 0 || base < 0 || base+size > bus.Device().Config().CapacityBytes {
		return nil, fmt.Errorf("core: pcm log region [%d,%d) invalid", base, base+size)
	}
	return &PCMLog{bus: bus, base: base, size: size}, nil
}

// Append implements LogDevice: a store into the persistence domain.
// The tail is reserved before the stores begin so concurrent appenders
// get disjoint regions.
func (l *PCMLog) Append(p *sim.Proc, data []byte) (int64, error) {
	if l.tail-l.head+int64(len(data)) > l.size {
		return 0, fmt.Errorf("%w: %d live bytes, %d capacity", ErrLogFull, l.tail-l.head, l.size)
	}
	off := l.tail
	l.tail += int64(len(data))
	// The log is a ring over its region.
	pos := l.base + off%l.size
	first := l.size - off%l.size
	if int64(len(data)) <= first {
		if err := l.bus.Store(p, pos, data); err != nil {
			return 0, err
		}
	} else {
		if err := l.bus.Store(p, pos, data[:first]); err != nil {
			return 0, err
		}
		if err := l.bus.Store(p, l.base, data[first:]); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// Sync implements LogDevice: the persist barrier.
func (l *PCMLog) Sync(p *sim.Proc, begin func()) error {
	if begin != nil {
		begin()
	}
	l.bus.Persist(p)
	return nil
}

// SyncNow implements LogDevice: a persist barrier has no device queue
// to overlap in, so the log keeps one sync at a time.
func (l *PCMLog) SyncNow() bool { return false }

// RawReadAt implements LogDevice: bounds-free ring reads for recovery.
func (l *PCMLog) RawReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || int64(n) > l.size {
		return nil, fmt.Errorf("core: raw read [%d,%d) invalid", off, off+int64(n))
	}
	pos := l.base + off%l.size
	first := l.size - off%l.size
	if int64(n) <= first {
		return l.bus.Load(p, pos, n)
	}
	a, err := l.bus.Load(p, pos, int(first))
	if err != nil {
		return nil, err
	}
	b, err := l.bus.Load(p, l.base, n-int(first))
	if err != nil {
		return nil, err
	}
	return append(a, b...), nil
}

// Reset implements LogDevice.
func (l *PCMLog) Reset(_ *sim.Proc, head, tail int64) error {
	if head < 0 || tail < head || tail-head > l.size {
		return fmt.Errorf("core: reset [%d,%d] invalid", head, tail)
	}
	l.head, l.tail = head, tail
	return nil
}

// Truncate implements LogDevice.
func (l *PCMLog) Truncate(head int64) error {
	if head < l.head || head > l.tail {
		return fmt.Errorf("core: truncate %d outside [%d,%d]", head, l.head, l.tail)
	}
	l.head = head
	return nil
}

// Tail implements LogDevice.
func (l *PCMLog) Tail() int64 { return l.tail }

// BlockLog is the conservative synchronous domain: the same append-only
// log kept in a page region of a block device. Appends buffer in host
// RAM; Sync writes every page not yet written (including the
// partially-filled tail page, rewritten on the next Sync — the small-write
// penalty of page granularity) and issues a device flush.
type BlockLog struct {
	stack    *blockdev.Stack
	basePage int64
	pages    int64
	pageSize int

	tenant *sched.Tenant // scheduler tag for every log I/O
	core   int           // submitting core for log I/O

	head int64
	tail int64

	buf map[int64][]byte // pageIdx -> staged content
	// written is the first byte whose page write no Sync has had
	// acknowledged; durable the first byte no flush has covered. A Sync
	// writes pages from written's on and flushes; the two part while a
	// Sync's flush runs, or while it waits behind an earlier one's.
	written, durable int64
	// spares are the buffers of the pages Truncate dropped, kept for the
	// next pages an Append crosses into (cleared first, so a page's
	// unwritten tail reads as zeros, as a new buffer's would). A buffer
	// is in buf or here, so the two hold at most the log's pages.
	spares [][]byte

	// One Sync at a time writes pages (writing): consecutive Syncs
	// rewrite the same tail page, and the block interface does not order
	// two writes of one LBA in flight together. A Sync that finds the
	// writes taken waits in writers, oldest first, on a pooled record.
	writing bool
	writers sim.Queue[*logWriter]
	idle    sim.Pool[logWriter]

	// reqs is the page writes' submission scratch, held by the one Sync
	// that is writing.
	reqs []blockdev.Request
}

// logWriter is a Sync waiting for the page writes of earlier ones; wake
// (c.Fire, bound once) hands it the writes.
type logWriter struct {
	c    *sim.Cond
	wake func()
}

var _ LogDevice = (*BlockLog)(nil)

// NewBlockLog carves pages [basePage, basePage+pages) of the device
// under stack into a log.
func NewBlockLog(stack *blockdev.Stack, basePage, pages int64) (*BlockLog, error) {
	dev := stack.Device()
	if pages <= 0 || basePage < 0 || basePage+pages > dev.Capacity() {
		return nil, fmt.Errorf("core: block log region [%d,%d) invalid", basePage, basePage+pages)
	}
	return &BlockLog{
		stack:    stack,
		basePage: basePage,
		pages:    pages,
		pageSize: dev.PageSize(),
		buf:      make(map[int64][]byte),
	}, nil
}

// SetTenant tags every subsequent log I/O with tenant t, routing it
// through the stack's attached scheduler (multi-shard assemblies give
// each shard's WAL the shard's tenant).
func (l *BlockLog) SetTenant(t *sched.Tenant) { l.tenant = t }

// SetSubmitCore picks the stack core that issues this log's I/O, so
// shards sharing one stack do not all serialize their WAL syncs behind
// core 0.
func (l *BlockLog) SetSubmitCore(c int) { l.core = c }

// Append implements LogDevice: staged in RAM until Sync.
func (l *BlockLog) Append(p *sim.Proc, data []byte) (int64, error) {
	if l.tail-l.head+int64(len(data)) > l.Capacity() {
		return 0, fmt.Errorf("%w: %d live bytes, %d capacity", ErrLogFull, l.tail-l.head, l.Capacity())
	}
	off := l.tail
	l.tail += int64(len(data))
	for cur := off; cur < off+int64(len(data)); {
		pageIdx := (cur / int64(l.pageSize)) % l.pages
		inPage := cur % int64(l.pageSize)
		page := l.buf[pageIdx]
		if page == nil {
			page = l.newPage()
			l.buf[pageIdx] = page
		}
		n := copy(page[inPage:], data[cur-off:])
		cur += int64(n)
	}
	return off, nil
}

// newPage returns a zeroed page buffer: a spare, if Truncate left one.
func (l *BlockLog) newPage() []byte {
	n := len(l.spares)
	if n == 0 {
		return make([]byte, l.pageSize)
	}
	page := l.spares[n-1]
	l.spares[n-1] = nil
	l.spares = l.spares[:n-1]
	clear(page)
	return page
}

// Sync implements LogDevice: write the pages not yet written, then
// flush the device. A Sync that overlaps an earlier one begins once that
// one's page writes are acknowledged, and writes from where they ended;
// its flush covers theirs too. The flushes run as the stack lets them
// (blockdev's flush rules).
func (l *BlockLog) Sync(p *sim.Proc, begin func()) error {
	l.takeWrites(p)
	if begin != nil {
		begin()
	}
	// end is what this Sync covers: appends that land while it runs stay
	// for the next one.
	end := l.tail
	err := l.write(p, end)
	l.passWrites(p.Engine())
	if err != nil || l.durable >= end {
		return err
	}
	if _, err := l.stack.SubmitSync(p, l.core, blockdev.Request{Op: blockdev.OpFlush}); err != nil {
		return fmt.Errorf("core: block log flush: %w", err)
	}
	// The tail page stays buffered: the next Sync rewrites it if more
	// bytes landed in it. Full pages stay cached for reads until
	// Truncate drops them.
	l.durable = max(l.durable, end)
	return nil
}

// SyncNow implements LogDevice: the stack would issue a flush at once
// (blockdev.Stack.FlushGoesNow).
func (l *BlockLog) SyncNow() bool { return l.stack.FlushGoesNow() }

// takeWrites blocks p until no earlier Sync holds or waits for the page
// writes, then takes them.
func (l *BlockLog) takeWrites(p *sim.Proc) {
	if l.writing {
		w := l.idle.Get()
		if w == nil {
			w = &logWriter{c: sim.NewCond(p.Engine())}
			w.wake = w.c.Fire
		}
		l.writers.Push(w)
		w.c.Await(p)
		w.c.Reset()
		l.idle.Put(w)
	}
	l.writing = true
}

// write writes the pages holding bytes up to end that no Sync has
// written yet, as one batch.
func (l *BlockLog) write(p *sim.Proc, end int64) error {
	if l.written >= end {
		return nil
	}
	firstPage := l.written / int64(l.pageSize)
	lastPage := (end - 1) / int64(l.pageSize)
	// Every page rides one batched submission — one amortized trip
	// through the submit path instead of one full-cost serial round trip
	// per page. The flush stays a separate barrier so durability
	// ordering is unchanged.
	reqs := l.reqs[:0]
	for pg := firstPage; pg <= lastPage; pg++ {
		idx := pg % l.pages
		page := l.buf[idx]
		if page == nil {
			continue
		}
		reqs = append(reqs, blockdev.Request{
			Op: blockdev.OpWrite, LPN: l.basePage + idx, Data: page, Tenant: l.tenant,
		})
	}
	err := l.stack.SubmitBatchSync(p, l.core, reqs)
	clear(reqs) // the stack copied what it needs; do not pin pages or callbacks
	l.reqs = reqs
	if err != nil {
		return fmt.Errorf("core: block log sync: %w", err)
	}
	l.written = max(l.written, end)
	return nil
}

// passWrites hands the page writes to the oldest Sync waiting for them,
// once the one passing them has submitted its flush (an event at this
// instant), or frees them.
func (l *BlockLog) passWrites(eng *sim.Engine) {
	if l.writers.Len() == 0 {
		l.writing = false
		return
	}
	eng.Schedule(eng.Now(), l.writers.Pop().wake)
}

// RawReadAt implements LogDevice: reads straight from the device pages,
// page by page, ignoring host bookkeeping (recovery after the buffer is
// gone). A page never written reads as zeros.
func (l *BlockLog) RawReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || int64(n) > l.Capacity() {
		return nil, fmt.Errorf("core: raw read [%d,%d) invalid", off, off+int64(n))
	}
	out := make([]byte, 0, n)
	for cur := off; cur < off+int64(n); {
		pageIdx := (cur / int64(l.pageSize)) % l.pages
		inPage := cur % int64(l.pageSize)
		want := min(off+int64(n)-cur, int64(l.pageSize)-inPage)
		page, err := l.stack.SubmitSync(p, l.core, blockdev.Request{Op: blockdev.OpRead, LPN: l.basePage + pageIdx, Tenant: l.tenant})
		if err != nil {
			return nil, err
		}
		if page == nil {
			page = make([]byte, l.pageSize)
		}
		out = append(out, page[inPage:inPage+want]...)
		cur += want
	}
	return out, nil
}

// Reset implements LogDevice: rewinds bookkeeping after recovery and
// reloads the partial tail page so later appends do not clobber it.
func (l *BlockLog) Reset(p *sim.Proc, head, tail int64) error {
	if head < 0 || tail < head || tail-head > l.Capacity() {
		return fmt.Errorf("core: reset [%d,%d] invalid", head, tail)
	}
	l.head, l.tail = head, tail
	l.written, l.durable = tail, tail
	l.buf = make(map[int64][]byte)
	if tail%int64(l.pageSize) != 0 {
		idx := (tail / int64(l.pageSize)) % l.pages
		data, err := l.stack.SubmitSync(p, l.core, blockdev.Request{Op: blockdev.OpRead, LPN: l.basePage + idx, Tenant: l.tenant})
		if err != nil {
			return err
		}
		page := make([]byte, l.pageSize)
		copy(page, data)
		l.buf[idx] = page
	}
	return nil
}

// Truncate implements LogDevice: trims fully-dead log pages.
func (l *BlockLog) Truncate(head int64) error {
	if head < l.head || head > l.tail {
		return fmt.Errorf("core: truncate %d outside [%d,%d]", head, l.head, l.tail)
	}
	oldFirst := l.head / int64(l.pageSize)
	newFirst := head / int64(l.pageSize)
	for pg := oldFirst; pg < newFirst; pg++ {
		idx := pg % l.pages
		// A Sync writes pages from written's on, so a page below that
		// one is in none, and nothing reads its buffer again.
		if page := l.buf[idx]; page != nil && pg < l.written/int64(l.pageSize) {
			l.spares = append(l.spares, page)
		}
		delete(l.buf, idx)
		// Tell the device these log pages are dead — the TRIM the paper
		// highlights.
		_ = l.stack.Device().Trim(l.basePage + idx)
	}
	l.head = head
	return nil
}

// Tail implements LogDevice.
func (l *BlockLog) Tail() int64 { return l.tail }

// Capacity reports the usable log bytes.
func (l *BlockLog) Capacity() int64 { return l.pages * int64(l.pageSize) }
