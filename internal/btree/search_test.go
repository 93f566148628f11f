package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/sim"
)

// buildTree loads n keys ("key%06d" → 64-byte values) in one batch.
func buildTree(tb testing.TB, pageSize, n int) (*Tree, *memPager) {
	tb.Helper()
	pg := newMemPager(pageSize)
	batch := make([]Entry, n)
	for i := range batch {
		batch[i] = Entry{Key: []byte(fmt.Sprintf("key%06d", i)), Value: bytes.Repeat([]byte{byte(i)}, 64)}
	}
	tr, err := New(pg, NilPage, 0).ApplyBatch(nil, batch)
	if err != nil {
		tb.Fatal(err)
	}
	return tr, pg
}

// TestTreeGetAllocs gates the in-place page search: a lookup through a
// height-2 tree whose pages are all cached materialises nothing.
func TestTreeGetAllocs(t *testing.T) {
	tr, _ := buildTree(t, 4096, 1000)
	if tr.Height() != 2 {
		t.Fatalf("height = %d, want 2", tr.Height())
	}
	key := []byte("key000617")
	allocs := testing.AllocsPerRun(200, func() {
		if v, err := tr.Get(nil, key); err != nil || v[0] != byte(617%256) {
			t.Fatalf("get: %v %v", v, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Tree.Get allocates %.0f times per lookup, want <= 1", allocs)
	}
}

// TestCursorSeekMatchesSortedKeys: a cursor positioned at any start key
// — present, absent, before the first, past the last — yields exactly
// the sorted suffix, on trees of height 1 to 3, reading each page once.
func TestCursorSeekMatchesSortedKeys(t *testing.T) {
	for _, n := range []int{0, 1, 7, 60, 900} {
		tr, pg := buildTree(t, 512, n)
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("key%06d", i)
		}
		starts := []string{"", "a", "key", "key000000", "key0000005", "key000030", "key000899", "key0008990", "z"}
		for _, start := range starts {
			want := keys[sort.SearchStrings(keys, start):]
			var c Cursor
			reads := map[int64]int{}
			counting := &countingPager{memPager: pg, reads: reads}
			ct := New(counting, tr.Root(), tr.Height())
			ok, err := c.Seek(nil, ct, []byte(start))
			i := 0
			for ; ok && err == nil; ok, err = c.Next(nil) {
				if i >= len(want) || string(c.Key) != want[i] {
					t.Fatalf("n=%d start=%q row %d = %q, want suffix of %d rows", n, start, i, c.Key, len(want))
				}
				i++
			}
			if err != nil || i != len(want) {
				t.Fatalf("n=%d start=%q: %d rows (err %v), want %d", n, start, i, err, len(want))
			}
			for id, r := range reads {
				if r != 1 {
					t.Fatalf("n=%d start=%q: page %d read %d times", n, start, id, r)
				}
			}
		}
	}
}

type countingPager struct {
	*memPager
	reads map[int64]int
}

func (c *countingPager) ScanPage(_ *sim.Proc, id int64) ([]byte, error) {
	c.reads[id]++
	return c.memPager.ReadPage(nil, id)
}

// refRoute is the routing rule over decoded separators: the child left
// of the first separator greater than key.
func refRoute(seps [][]byte, key []byte) int {
	i := 0
	for i < len(seps) && bytes.Compare(key, seps[i]) >= 0 {
		i++
	}
	return i
}

// FuzzPageSearch feeds arbitrary page bytes and keys to the in-place
// leaf search and internal routing. They must never panic or read out of
// bounds, must report ErrCorrupt only on pages decodeLeaf/decodeInternal
// reject, and must agree with a search over the decoded page whenever
// it decodes. The checks ApplyBatch runs before it rewrites a page
// (checkLeaf, checkInternal) must accept exactly what the decoders do. (They stop at the first key past the target, so a page
// corrupt only behind that point may still yield the answer its valid
// prefix gives; a leaf's early exit assumes sorted keys, so leaf answers
// are compared on sorted pages only.)
func FuzzPageSearch(f *testing.F) {
	leaf, _ := encodeLeaf(128, [][]byte{[]byte("a"), []byte("bb"), []byte("d")}, [][]byte{[]byte("1"), nil, []byte("333")})
	inner, _ := encodeInternal(make([]byte, 128), []nodeRef{{pageID: 7}, {minKey: []byte("b"), pageID: 8}, {minKey: []byte("d"), pageID: 9}})
	empty, _ := encodeLeaf(64, nil, nil)
	for _, page := range [][]byte{leaf, inner, empty} {
		for _, key := range []string{"", "a", "b", "bb", "c", "d", "e"} {
			f.Add(page, []byte(key))
			for _, cut := range []int{0, 1, 2, 3, 5, 9, 12, 17} {
				f.Add(page[:cut], []byte(key))
			}
		}
	}
	f.Fuzz(func(t *testing.T, page, key []byte) {
		val, err := searchLeaf(page, key)
		if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("searchLeaf: unexpected error %v", err)
		}
		keys, vals, derr := decodeLeaf(page)
		if n, cerr := checkLeaf(page); (cerr == nil) != (derr == nil) || cerr == nil && n != len(keys) {
			t.Fatalf("checkLeaf = %d, %v; decodeLeaf found %d cells, %v", n, cerr, len(keys), derr)
		}
		switch {
		case derr != nil:
			if !errors.Is(derr, ErrCorrupt) {
				t.Fatalf("decodeLeaf: %v", derr)
			}
		case errors.Is(err, ErrCorrupt):
			t.Fatalf("searchLeaf says corrupt, decodeLeaf accepts the page")
		case sort.SliceIsSorted(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 }):
			i := sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], key) >= 0 })
			found := i < len(keys) && bytes.Equal(keys[i], key)
			if found != (err == nil) || found && !bytes.Equal(val, vals[i]) {
				t.Fatalf("searchLeaf(%q) = %q, %v; decoded page says found=%v", key, val, err, found)
			}
		}

		child, _, _, err := routeInternal(page, key)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("routeInternal: unexpected error %v", err)
		}
		seps, children, derr := decodeInternal(page)
		if n, cerr := checkInternal(page); (cerr == nil) != (derr == nil) || cerr == nil && n != len(seps) {
			t.Fatalf("checkInternal = %d, %v; decodeInternal found %d separators, %v", n, cerr, len(seps), derr)
		}
		switch {
		case derr != nil:
			if !errors.Is(derr, ErrCorrupt) {
				t.Fatalf("decodeInternal: %v", derr)
			}
		case err != nil:
			t.Fatalf("routeInternal says corrupt, decodeInternal accepts the page")
		case child != children[refRoute(seps, key)]:
			t.Fatalf("routeInternal(%q) = %d, decoded page routes to %d", key, child, children[refRoute(seps, key)])
		}
	})
}

// encodeLeaf serializes a leaf page, for the fuzz seeds.
func encodeLeaf(pageSize int, keys, vals [][]byte) ([]byte, error) {
	buf := make([]byte, pageSize)
	buf[0] = pageLeaf
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(keys)))
	off := headerBytes
	for i := range keys {
		need := 4 + len(keys[i]) + len(vals[i])
		if off+need > pageSize {
			return nil, fmt.Errorf("%w: leaf overflow", ErrKeyTooLarge)
		}
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(keys[i])))
		off += 2
		off += copy(buf[off:], keys[i])
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(vals[i])))
		off += 2
		off += copy(buf[off:], vals[i])
	}
	return buf, nil
}

// decodeLeaf parses a whole leaf page: the fuzz oracle the in-place
// search and checkLeaf are held to. Its slices are sized once from the
// cell count (capped at what the page can hold: a cell is at least 4
// bytes).
func decodeLeaf(data []byte) (keys, vals [][]byte, err error) {
	n, ok := cellCount(data)
	if !ok {
		return nil, nil, fmt.Errorf("%w: leaf header", ErrCorrupt)
	}
	size := min(n, (len(data)-headerBytes)/4)
	keys, vals = make([][]byte, 0, size), make([][]byte, 0, size)
	off := headerBytes
	for i := 0; i < n; i++ {
		if off+2 > len(data) {
			return nil, nil, fmt.Errorf("%w: leaf entry %d", ErrCorrupt, i)
		}
		kl := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+kl+2 > len(data) {
			return nil, nil, fmt.Errorf("%w: leaf key %d", ErrCorrupt, i)
		}
		k := data[off : off+kl]
		off += kl
		vl := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+vl > len(data) {
			return nil, nil, fmt.Errorf("%w: leaf value %d", ErrCorrupt, i)
		}
		v := data[off : off+vl]
		off += vl
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return keys, vals, nil
}

func BenchmarkTreeGet(b *testing.B) {
	tr, _ := buildTree(b, 4096, 1000)
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%06d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Get(nil, keys[(i*7919)%1000]); err != nil {
			b.Fatal(err)
		}
	}
}
