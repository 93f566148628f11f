// Package bufpool provides a CLOCK page cache over a core.PageStore.
// The storage engine's B+tree pages are immutable (copy-on-write), so
// the cache holds clean pages only: eviction never writes back, and a
// cached page can never be stale — it can only be freed, which
// invalidates it explicitly.
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
	bp.Misses++
	data, err := bp.store.ReadPage(p, pageID)
	if err != nil {
		return nil, fmt.Errorf("bufpool: read page %d: %w", pageID, err)
	}
	if data == nil {
		data = make([]byte, bp.store.PageSize())
	}
	bp.insert(pageID, data)
	return data, nil
}

// Peek returns page pageID's cached contents, if the pool holds them,
// without reading the store, setting the frame's CLOCK ref bit or
// counting a hit or a miss: a residency probe, not a read. Every read
// goes through Get.
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
	bp.insert(pageID, data)
}

// insert places a page in a frame chosen by CLOCK.
func (bp *Pool) insert(pageID int64, data []byte) {
	for {
		f := &bp.frames[bp.hand]
		idx := bp.hand
		bp.hand = (bp.hand + 1) % len(bp.frames)
		if !f.used {
			*f = frame{pageID: pageID, data: data, ref: true, used: true}
			bp.table[pageID] = idx
			return
		}
		if f.ref {
			f.ref = false
			continue
		}
		bp.Evictions++
		delete(bp.table, f.pageID)
		*f = frame{pageID: pageID, data: data, ref: true, used: true}
		bp.table[pageID] = idx
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
