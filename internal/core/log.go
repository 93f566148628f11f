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
func (l *PCMLog) Sync(p *sim.Proc) error {
	l.bus.Persist(p)
	return nil
}

// ReadAt implements LogDevice.
func (l *PCMLog) ReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	if off < l.head || off+int64(n) > l.tail {
		return nil, fmt.Errorf("core: log read [%d,%d) outside [%d,%d)", off, off+int64(n), l.head, l.tail)
	}
	return l.RawReadAt(p, off, n)
}

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

// Capacity implements LogDevice.
func (l *PCMLog) Capacity() int64 { return l.size }

// BlockLog is the conservative synchronous domain: the same append-only
// log kept in a page region of a block device. Appends buffer in host
// RAM; Sync writes every dirty page (including the partially-filled
// tail page, rewritten on the next Sync — the small-write penalty of
// page granularity) and issues a device flush.
type BlockLog struct {
	stack    *blockdev.Stack
	basePage int64
	pages    int64
	pageSize int

	tenant *sched.Tenant // scheduler tag for every log I/O
	core   int           // submitting core for log I/O

	head int64
	tail int64

	buf       map[int64][]byte // pageIdx -> staged content
	dirtyFrom int64            // first byte not yet durable
	// spare is the buffer of a page Truncate dropped, kept for the next
	// page an Append crosses into (cleared first, so a page's unwritten
	// tail reads as zeros, as a new buffer's would).
	spare []byte

	// reqs is Sync's submission scratch. A Sync takes it for as long as
	// it runs, so one that overlapped it would find none and allocate its
	// own (a WAL's log writer is the one caller, so none does).
	reqs []blockdev.Request
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

// newPage returns a zeroed page buffer: the spare, if Truncate left one.
func (l *BlockLog) newPage() []byte {
	page := l.spare
	if page == nil {
		return make([]byte, l.pageSize)
	}
	l.spare = nil
	clear(page)
	return page
}

// Sync implements LogDevice: write dirty pages, then flush the device.
func (l *BlockLog) Sync(p *sim.Proc) error {
	// end is what this Sync covers: appends that land while it runs (the
	// log writer's next batch) stay dirty for the next one.
	end := l.tail
	if l.dirtyFrom >= end {
		return nil
	}
	firstPage := l.dirtyFrom / int64(l.pageSize)
	lastPage := (end - 1) / int64(l.pageSize)
	// Every dirty page rides one batched submission — one amortized trip
	// through the submit path instead of one full-cost serial round trip
	// per page. The flush stays a separate barrier so durability
	// ordering is unchanged.
	reqs := l.reqs[:0]
	l.reqs = nil
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
	if err := l.stack.FlushSync(p, l.core); err != nil {
		return fmt.Errorf("core: block log flush: %w", err)
	}
	// The tail page stays buffered: the next Sync rewrites it if more
	// bytes landed in it. Full pages stay cached for reads until
	// Truncate drops them.
	l.dirtyFrom = (end / int64(l.pageSize)) * int64(l.pageSize)
	return nil
}

// ReadAt implements LogDevice: served from the buffer when possible,
// otherwise from the device (recovery).
func (l *BlockLog) ReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	if off < l.head || off+int64(n) > l.tail {
		return nil, fmt.Errorf("core: log read [%d,%d) outside [%d,%d)", off, off+int64(n), l.head, l.tail)
	}
	return l.read(p, off, n, true)
}

// RawReadAt implements LogDevice: reads straight from the device pages,
// ignoring host bookkeeping (recovery after the buffer is gone).
func (l *BlockLog) RawReadAt(p *sim.Proc, off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || int64(n) > l.Capacity() {
		return nil, fmt.Errorf("core: raw read [%d,%d) invalid", off, off+int64(n))
	}
	return l.read(p, off, n, false)
}

// read copies log bytes [off, off+n) page by page: from the host buffer
// when buffered is set and holds the page, otherwise from the device (a
// page never written reads as zeros).
func (l *BlockLog) read(p *sim.Proc, off int64, n int, buffered bool) ([]byte, error) {
	out := make([]byte, 0, n)
	for cur := off; cur < off+int64(n); {
		pageIdx := (cur / int64(l.pageSize)) % l.pages
		inPage := cur % int64(l.pageSize)
		want := min(off+int64(n)-cur, int64(l.pageSize)-inPage)
		page := l.buf[pageIdx]
		if !buffered || page == nil {
			data, err := l.stack.ReadSyncAs(p, l.tenant, l.core, l.basePage+pageIdx)
			if err != nil {
				return nil, err
			}
			if page = data; page == nil {
				page = make([]byte, l.pageSize)
			}
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
	l.dirtyFrom = tail
	l.buf = make(map[int64][]byte)
	if tail%int64(l.pageSize) != 0 {
		idx := (tail / int64(l.pageSize)) % l.pages
		data, err := l.stack.ReadSyncAs(p, l.tenant, l.core, l.basePage+idx)
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
		// A running Sync writes pages from dirtyFrom's on, so a page
		// below that one is in none, and nothing reads its buffer again.
		if page := l.buf[idx]; page != nil && pg < l.dirtyFrom/int64(l.pageSize) {
			l.spare = page
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

// Capacity implements LogDevice.
func (l *BlockLog) Capacity() int64 { return l.pages * int64(l.pageSize) }
