package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// memPager is an in-memory Pager for unit tests.
type memPager struct {
	pageSize int
	next     int64
	pages    map[int64][]byte
	freed    map[int64]bool
	writes   int
}

func newMemPager(pageSize int) *memPager {
	return &memPager{pageSize: pageSize, pages: map[int64][]byte{}, freed: map[int64]bool{}}
}

func (m *memPager) PageSize() int   { return m.pageSize }
func (m *memPager) NewPage() []byte { return make([]byte, m.pageSize) }
func (m *memPager) Alloc() int64    { m.next++; return m.next }
func (m *memPager) WritePage(_ *sim.Proc, id int64, data []byte) error {
	if m.freed[id] {
		return fmt.Errorf("write to freed page %d", id)
	}
	m.pages[id] = append([]byte(nil), data...)
	m.writes++
	return nil
}
func (m *memPager) ReadPage(_ *sim.Proc, id int64) ([]byte, error) {
	d, ok := m.pages[id]
	if !ok {
		return nil, fmt.Errorf("missing page %d", id)
	}
	return d, nil
}
func (m *memPager) ScanPage(p *sim.Proc, id int64) ([]byte, error) { return m.ReadPage(p, id) }
func (m *memPager) Free(id int64)                                  { m.freed[id] = true }

func entry(k, v string) Entry { return Entry{Key: []byte(k), Value: []byte(v)} }

func sortBatch(b []Entry) {
	sort.Slice(b, func(i, j int) bool { return bytes.Compare(b[i].Key, b[j].Key) < 0 })
}

func TestEmptyTreeGet(t *testing.T) {
	tr := New(newMemPager(256), NilPage, 0)
	if _, err := tr.Get(nil, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := scan(nil, tr, func(k, v []byte) bool { return true }); err != nil {
		t.Fatalf("scan empty: %v", err)
	}
}

func TestSingleBatchInsertAndGet(t *testing.T) {
	pg := newMemPager(256)
	tr := New(pg, NilPage, 0)
	batch := []Entry{entry("a", "1"), entry("b", "2"), entry("c", "3")}
	tr2, err := tr.ApplyBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range batch {
		got, err := tr2.Get(nil, e.Key)
		if err != nil || !bytes.Equal(got, e.Value) {
			t.Fatalf("get %s: %v %v", e.Key, got, err)
		}
	}
	if _, err := tr2.Get(nil, []byte("zz")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if tr2.Height() != 1 {
		t.Fatalf("height = %d", tr2.Height())
	}
}

func TestBatchNotSortedRejected(t *testing.T) {
	tr := New(newMemPager(256), NilPage, 0)
	if _, err := tr.ApplyBatch(nil, []Entry{entry("b", "1"), entry("a", "2")}); err == nil {
		t.Fatal("unsorted batch accepted")
	}
	if _, err := tr.ApplyBatch(nil, []Entry{entry("a", "1"), entry("a", "2")}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

func TestEmptyBatchIsNoop(t *testing.T) {
	tr := New(newMemPager(256), NilPage, 0)
	tr2, err := tr.ApplyBatch(nil, nil)
	if err != nil || tr2 != tr {
		t.Fatal("empty batch should return the same tree")
	}
}

func TestGrowsToMultipleLevels(t *testing.T) {
	pg := newMemPager(128) // tiny pages force splits
	tr := New(pg, NilPage, 0)
	var batch []Entry
	for i := 0; i < 200; i++ {
		batch = append(batch, entry(fmt.Sprintf("key%04d", i), fmt.Sprintf("val%04d", i)))
	}
	sortBatch(batch)
	tr2, err := tr.ApplyBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Height() < 2 {
		t.Fatalf("height = %d, want >= 2", tr2.Height())
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key%04d", i)
		got, err := tr2.Get(nil, []byte(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if string(got) != fmt.Sprintf("val%04d", i) {
			t.Fatalf("wrong value for %s", k)
		}
	}
}

func TestScanInOrder(t *testing.T) {
	pg := newMemPager(128)
	tr := New(pg, NilPage, 0)
	var batch []Entry
	for i := 0; i < 100; i++ {
		batch = append(batch, entry(fmt.Sprintf("k%03d", i), "v"))
	}
	sortBatch(batch)
	tr2, err := tr.ApplyBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	scan(nil, tr2, func(k, v []byte) bool {
		seen = append(seen, string(k))
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("scanned %d keys", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i-1] >= seen[i] {
			t.Fatalf("scan out of order at %d: %s >= %s", i, seen[i-1], seen[i])
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	pg := newMemPager(256)
	tr, _ := New(pg, NilPage, 0).ApplyBatch(nil, []Entry{entry("a", "1"), entry("b", "2"), entry("c", "3")})
	count := 0
	scan(nil, tr, func(k, v []byte) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("visited %d", count)
	}
}

func TestUpdatesAndTombstones(t *testing.T) {
	pg := newMemPager(256)
	tr, err := New(pg, NilPage, 0).ApplyBatch(nil, []Entry{entry("a", "1"), entry("b", "2"), entry("c", "3")})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := tr.ApplyBatch(nil, []Entry{
		entry("a", "10"),
		{Key: []byte("b"), Tombstone: true},
		entry("d", "4"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tr2.Get(nil, []byte("a")); string(got) != "10" {
		t.Fatalf("a = %q", got)
	}
	if _, err := tr2.Get(nil, []byte("b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("b: %v", err)
	}
	if got, _ := tr2.Get(nil, []byte("c")); string(got) != "3" {
		t.Fatalf("c = %q", got)
	}
	if got, _ := tr2.Get(nil, []byte("d")); string(got) != "4" {
		t.Fatalf("d = %q", got)
	}
	// Old version still serves the old data (COW).
	if got, _ := tr.Get(nil, []byte("a")); string(got) != "1" {
		t.Fatalf("old version a = %q", got)
	}
}

func TestDeleteEverything(t *testing.T) {
	pg := newMemPager(256)
	tr, _ := New(pg, NilPage, 0).ApplyBatch(nil, []Entry{entry("a", "1"), entry("b", "2")})
	tr2, err := tr.ApplyBatch(nil, []Entry{
		{Key: []byte("a"), Tombstone: true},
		{Key: []byte("b"), Tombstone: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Root() != NilPage {
		t.Fatalf("root = %d, want NilPage", tr2.Root())
	}
}

func TestCOWNeverOverwrites(t *testing.T) {
	pg := newMemPager(128)
	tr := New(pg, NilPage, 0)
	for round := 0; round < 10; round++ {
		var batch []Entry
		for i := 0; i < 30; i++ {
			batch = append(batch, entry(fmt.Sprintf("k%02d", i), fmt.Sprintf("r%d", round)))
		}
		sortBatch(batch)
		var err error
		tr, err = tr.ApplyBatch(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
	}
	// memPager errors on any write to a freed page; reaching here means
	// no page was ever overwritten.
	if len(pg.freed) == 0 {
		t.Fatal("no pages were ever freed")
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	pg := newMemPager(128)
	tr := New(pg, NilPage, 0)
	big := make([]byte, 200)
	if _, err := tr.ApplyBatch(nil, []Entry{{Key: []byte("k"), Value: big}}); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

// Property: any sequence of batches behaves like a map.
func TestPropertyTreeMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		pg := newMemPager(128)
		tr := New(pg, NilPage, 0)
		model := map[string]string{}
		// Group ops into batches of up to 8.
		for start := 0; start < len(ops); start += 8 {
			end := start + 8
			if end > len(ops) {
				end = len(ops)
			}
			seen := map[string]bool{}
			var batch []Entry
			for _, op := range ops[start:end] {
				k := fmt.Sprintf("k%02d", op%32)
				if seen[k] {
					continue
				}
				seen[k] = true
				if op%5 == 4 {
					batch = append(batch, Entry{Key: []byte(k), Tombstone: true})
					delete(model, k)
				} else {
					v := fmt.Sprintf("v%d", op)
					batch = append(batch, entry(k, v))
					model[k] = v
				}
			}
			sortBatch(batch)
			var err error
			tr, err = tr.ApplyBatch(nil, batch)
			if err != nil {
				return false
			}
		}
		// Verify against the model.
		for k, v := range model {
			got, err := tr.Get(nil, []byte(k))
			if err != nil || string(got) != v {
				return false
			}
		}
		count := 0
		scan(nil, tr, func(k, v []byte) bool {
			count++
			if model[string(k)] != string(v) {
				count = -1 << 20
			}
			return true
		})
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// descentDepth counts the pages a Get of the tree's smallest key
// visits: the root, then child 0 of every internal page down to a leaf.
func descentDepth(t *testing.T, pg *memPager, root int64) int {
	t.Helper()
	depth := 0
	for id := root; ; depth++ {
		data, err := pg.ReadPage(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] == pageLeaf {
			return depth + 1
		}
		children, err := InternalChildren(data)
		if err != nil {
			t.Fatal(err)
		}
		id = children[0]
	}
}

// TestHeightCountsLevelsNotBatches: Height is the depth of the leftmost
// descent, so it must not grow with the number of batches applied.
// Every batch on a multi-level tree rewrites the root over the level
// that was already there; counting that rewrite as growth made Height
// climb by one per batch, and the engine persists the value in its
// superblock.
func TestHeightCountsLevelsNotBatches(t *testing.T) {
	pg := newMemPager(256)
	var batch []Entry
	for i := 0; i < 400; i++ {
		batch = append(batch, entry(fmt.Sprintf("key%04d", i), fmt.Sprintf("value-%04d", i)))
	}
	tr, err := New(pg, NilPage, 0).ApplyBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d, want a multi-level tree", tr.Height())
	}
	for round := 0; round < 200; round++ {
		k := fmt.Sprintf("key%04d", (round*37)%400)
		tr, err = tr.ApplyBatch(nil, []Entry{entry(k, fmt.Sprintf("round-%04d", round))})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tr.Height(), descentDepth(t, pg, tr.Root()); got != want {
			t.Fatalf("round %d: Height() = %d, leftmost descent visits %d pages", round, got, want)
		}
	}
	if tr.Height() > 4 {
		t.Fatalf("Height() = %d after 200 single-key batches, want <= 4", tr.Height())
	}
}

// scan visits all live entries in key order through a Cursor, stopping
// early if fn returns false.
func scan(p *sim.Proc, t *Tree, fn func(key, value []byte) bool) error {
	var c Cursor
	ok, err := c.Seek(p, t, nil)
	for ok && err == nil && fn(c.Key, c.Value) {
		ok, err = c.Next(p)
	}
	return err
}
