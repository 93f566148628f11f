package kvstore

import (
	"bytes"
	"slices"
	"sort"

	"repro/internal/btree"
	"repro/internal/sim"
)

// memtable is an ordered set of committed updates not yet in the tree:
// entries sorted by key, one per key, tombstones included. It is the
// one representation of the live memtable, the frozen one a checkpoint
// is draining (which is already the sorted batch the tree wants) and a
// snapshot's overlay. Inserts shift the tail, which CheckpointBytes
// bounds.
type memtable []btree.Entry

// find returns the index key sorts at and whether an entry for it is
// there.
func (m memtable) find(key []byte) (int, bool) {
	i := sort.Search(len(m), func(i int) bool { return bytes.Compare(m[i].Key, key) >= 0 })
	return i, i < len(m) && bytes.Equal(m[i].Key, key)
}

// seek returns the index of the first entry with key >= pos, or > pos
// when after is set.
func (m memtable) seek(pos []byte, after bool) int {
	i, found := m.find(pos)
	if found && after {
		i++
	}
	return i
}

// get returns the entry for key, if any.
func (m memtable) get(key []byte) (btree.Entry, bool) {
	if i, found := m.find(key); found {
		return m[i], true
	}
	return btree.Entry{}, false
}

// put inserts or replaces the entry for key. The table keeps key and
// v.value; callers hand over slices nobody writes again.
func (m *memtable) put(key []byte, v memVal) {
	e := btree.Entry{Key: key, Value: v.value, Tombstone: v.tombstone}
	if i, found := m.find(key); found {
		(*m)[i] = e
	} else {
		*m = slices.Insert(*m, i, e)
	}
}

// chunkBytes sizes the chunks a memtable's arena is cut from.
const chunkBytes = 4 << 10

// keep copies b into mem's arena and returns the copy, capped at its
// length so an append cannot reach the next. The copy goes into mem's
// last chunk, or, when that has no room, into a spare chunk or a new one
// (of b's size when b is larger than chunkBytes). A chunk is reused only
// once its memtable is retired and no pin is held, so every slice it
// handed out — a memtable entry, a Get result, a snapshot's or a
// suspended scan's row — stays as it was while a reader may hold it.
func (s *Store) keep(b []byte) []byte {
	n := len(s.arena)
	if n == s.memAt || cap(s.arena[n-1])-len(s.arena[n-1]) < len(b) {
		c := pop(&s.spareChunks)
		if c == nil || cap(c) < len(b) {
			c = make([]byte, 0, max(len(b), chunkBytes))
		}
		s.arena = append(s.arena, c)
		n++
	}
	c := append(s.arena[n-1], b...)
	s.arena[n-1] = c
	return c[len(c)-len(b) : len(c) : len(c)]
}

// pop removes and returns the last element of *list, or the zero value
// when it is empty.
func pop[T any](list *[]T) T {
	var v T
	if n := len(*list); n > 0 {
		v, (*list)[n-1] = (*list)[n-1], v
		*list = (*list)[:n-1]
	}
	return v
}

// keepNewest drops all but the last n elements of list, oldest first.
func keepNewest[T any](list []T, n int) []T {
	if extra := len(list) - n; extra > 0 {
		n := copy(list, list[extra:])
		clear(list[n:])
		list = list[:n]
	}
	return list
}

// layers is one consistent reading of a store: two memtables over a
// tree version, newest first. gen changes whenever any of them does.
type layers struct {
	mem, frozen memtable
	tree        *btree.Tree
	gen         uint64
}

// layerSource is what a merge scan reads: the live store, whose layers
// move under a suspended scan, or a snapshot, whose layers never do.
type layerSource interface{ layers() layers }

// scanLayers streams src's live rows with key >= start to fn in strictly
// ascending key order until fn returns false: a three-way merge of the
// two memtables and a tree cursor in which the newer layer wins a tie
// and a tombstone suppresses the key. Only the cursor can suspend the
// calling process (a page read); when the source's layers have moved
// by the time it resumes, the merge re-seeks every layer just past the
// last key it handed out, so it never emits a key twice or out of
// order, and each row is a value the key held while the scan ran. The
// cursor comes from the store's idle list and goes back when it ends.
func (s *Store) scanLayers(p *sim.Proc, src layerSource, start []byte, fn func(key, value []byte) bool) error {
	cur := s.cursors.Get()
	if cur == nil {
		cur = new(btree.Cursor)
	}
	defer func() {
		cur.Reset()
		s.cursors.Put(cur)
	}()
	var (
		l       layers
		inTree  bool // cur is on an entry
		mi, fi  int
		pos     = start
		emitted bool // pos was handed out: resume strictly after it
	)
	for first := true; ; first = false {
		if now := src.layers(); first || now.gen != l.gen {
			newTree := first || now.tree != l.tree
			l = now
			mi, fi = l.mem.seek(pos, emitted), l.frozen.seek(pos, emitted)
			if newTree {
				var err error
				if inTree, err = cur.Seek(p, l.tree, pos); err != nil {
					return err
				}
				if inTree && emitted && bytes.Equal(cur.Key, pos) {
					if inTree, err = cur.Next(p); err != nil {
						return err
					}
				}
				continue // the seek may have suspended: look again
			}
		}
		// The smallest key at the three heads, newest layer first.
		var e btree.Entry
		found := false
		if mi < len(l.mem) {
			e, found = l.mem[mi], true
		}
		if fi < len(l.frozen) && (!found || bytes.Compare(l.frozen[fi].Key, e.Key) < 0) {
			e, found = l.frozen[fi], true
		}
		if inTree && (!found || bytes.Compare(cur.Key, e.Key) < 0) {
			e, found = btree.Entry{Key: cur.Key, Value: cur.Value}, true
		}
		if !found {
			return nil
		}
		if !e.Tombstone && !fn(e.Key, e.Value) {
			return nil
		}
		pos, emitted = e.Key, true
		if mi < len(l.mem) && bytes.Equal(l.mem[mi].Key, pos) {
			mi++
		}
		if fi < len(l.frozen) && bytes.Equal(l.frozen[fi].Key, pos) {
			fi++
		}
		if inTree && bytes.Equal(cur.Key, pos) {
			var err error
			if inTree, err = cur.Next(p); err != nil {
				return err
			}
		}
	}
}
