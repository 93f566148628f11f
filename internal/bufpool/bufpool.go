// Package bufpool provides a CLOCK page cache over a core.PageStore.
// The storage engine's B+tree pages are immutable (copy-on-write), so
// the cache holds clean pages only: eviction never writes back, and a
// cached page can never be stale — it can only be freed, which
// invalidates it explicitly.
//
// A page read by Get or written by Put enters with its CLOCK bit set:
// the hand passes it once before it can be replaced. A range read says
// so by reading through Scan instead: a scan's page is read once and
// not again, so it enters on probation, in the frame CLOCK would
// replace next with its bit clear and the hand left on it. The next
// miss by anyone replaces it unless a Get hits it first and sets the
// bit; a scan's hit leaves the bit as it is. So a scan larger than the
// pool costs the pages point reads keep hot one frame, not the pool.
//
// The cache copies nothing. A frame holds the buffer it was given: on a
// miss, the page the device read (shared with the flash page itself); on
// Put, the engine's own encoding of a page it just wrote, which the
// engine wrote sealed (core.PageStore.WriteSealedPage), so the device
// kept that buffer too rather than a copy. Every holder of a page only
// reads it, so one buffer serves the device, the cache and every caller
// of Get.
//
// The owner never re-Puts a page while a miss on it is in flight: it
// reuses a page ID only once no reader can reach the freed page, so what
// a miss reads is still the page its ID names when it lands. A miss
// whose page was only invalidated meanwhile caches what it read: the
// freed page's bytes, read only by the readers that can still reach it,
// until the Put that reuses the ID replaces them.
//
// Two Get misses in flight on one page each take a frame, and evicting
// the orphaned copy later drops the live copy's table entry. It stays:
// making a Get miss skip the insert keeps more pages in the small
// caches of a saturated fabric, and that fabric's admission cap turns
// the extra throughput into rejects and tail latency. Scan never adds
// such a copy.
package bufpool

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Pool is a CLOCK read cache.
type Pool struct {
	store  core.PageStore
	frames []frame
	table  map[int64]int
	hand   int

	// Hits and Misses count lookups; Evictions counts replaced frames.
	Hits, Misses, Evictions int64
}

type frame struct {
	pageID int64
	data   []byte
	ref    bool
	used   bool
}

// New builds a pool of n frames over store.
func New(store core.PageStore, n int) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bufpool: %d frames", n)
	}
	return &Pool{
		store:  store,
		frames: make([]frame, n),
		table:  make(map[int64]int),
	}, nil
}

// Get returns page pageID's contents. The returned slice is the cached
// copy: callers must not modify it (pages are immutable by design).
func (bp *Pool) Get(p *sim.Proc, pageID int64) ([]byte, error) {
	if idx, ok := bp.table[pageID]; ok {
		bp.Hits++
		bp.frames[idx].ref = true
		return bp.frames[idx].data, nil
	}
	data, err := bp.miss(p, pageID)
	if err != nil {
		return nil, err
	}
	bp.insert(pageID, data, true)
	return data, nil
}

// Scan is Get for a range read, which reads each page once: a hit
// leaves the frame's CLOCK bit as it is, and a miss caches the page on
// probation (see the package doc), unless a miss that landed while this
// one was in flight cached it already.
func (bp *Pool) Scan(p *sim.Proc, pageID int64) ([]byte, error) {
	if idx, ok := bp.table[pageID]; ok {
		bp.Hits++
		return bp.frames[idx].data, nil
	}
	data, err := bp.miss(p, pageID)
	if err != nil {
		return nil, err
	}
	if _, ok := bp.table[pageID]; !ok {
		bp.insert(pageID, data, false)
	}
	return data, nil
}

// miss counts a miss and reads the page from the store; a page never
// written reads as zeroes.
func (bp *Pool) miss(p *sim.Proc, pageID int64) ([]byte, error) {
	bp.Misses++
	data, err := bp.store.ReadPage(p, pageID)
	if err != nil {
		return nil, fmt.Errorf("bufpool: read page %d: %w", pageID, err)
	}
	if data == nil {
		data = make([]byte, bp.store.PageSize())
	}
	return data, nil
}

// Peek returns page pageID's cached contents, if the pool holds them,
// without reading the store, setting the frame's CLOCK ref bit or
// counting a hit or a miss: a residency probe, not a read. Every read
// goes through Get or Scan.
func (bp *Pool) Peek(pageID int64) ([]byte, bool) {
	idx, ok := bp.table[pageID]
	if !ok {
		return nil, false
	}
	return bp.frames[idx].data, true
}

// Put caches a page the caller just wrote (write-through population, so
// a checkpoint's own pages are warm afterwards). The pool keeps data
// itself: the caller must not modify it afterwards.
func (bp *Pool) Put(pageID int64, data []byte) {
	if idx, ok := bp.table[pageID]; ok {
		bp.frames[idx].data = data
		bp.frames[idx].ref = true
		return
	}
	bp.insert(pageID, data, true)
}

// insert places a page in the frame CLOCK replaces. With ref set the
// page gets its second chance and the hand moves past it; without, the
// hand stays on it, so the next insert replaces it unless a Get sets
// its bit first.
func (bp *Pool) insert(pageID int64, data []byte, ref bool) {
	for {
		f := &bp.frames[bp.hand]
		if f.used && f.ref {
			f.ref = false
			bp.hand = (bp.hand + 1) % len(bp.frames)
			continue
		}
		if f.used {
			bp.Evictions++
			delete(bp.table, f.pageID)
		}
		*f = frame{pageID: pageID, data: data, ref: ref, used: true}
		bp.table[pageID] = bp.hand
		if ref {
			bp.hand = (bp.hand + 1) % len(bp.frames)
		}
		return
	}
}

// Invalidate drops a freed page from the cache.
func (bp *Pool) Invalidate(pageID int64) {
	if idx, ok := bp.table[pageID]; ok {
		delete(bp.table, pageID)
		bp.frames[idx] = frame{}
	}
}
