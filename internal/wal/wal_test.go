package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/pcm"
	"repro/internal/sim"
	"repro/internal/ssd"
)

func newPCMWAL(t *testing.T) (*sim.Engine, *WAL) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := pcm.DefaultConfig()
	cfg.CapacityBytes = 1 << 22
	dev, err := pcm.New(eng, "pcm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	log, err := core.NewPCMLog(pcm.NewMemBus(eng, dev), 0, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	return eng, New(eng, log)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(kind uint8, txn uint64, key, value []byte, lsnRaw uint32) bool {
		lsn := int64(lsnRaw)
		r := Record{Kind: Kind(kind%3 + 1), Txn: txn, Key: key, Value: value}
		buf := appendRecord(nil, r, lsn)
		got, n, err := decode(buf, lsn)
		if err != nil || n != len(buf) {
			return false
		}
		// A stale-LSN decode must fail.
		if _, _, err := decode(buf, lsn+1); err == nil {
			return false
		}
		return got.Kind == r.Kind && got.Txn == r.Txn &&
			bytes.Equal(got.Key, r.Key) && bytes.Equal(got.Value, r.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzWALDecode feeds arbitrary bytes and an expected LSN to the decoder
// recovery trusts. It must never panic or fail with anything but
// ErrCorrupt/ErrEndOfLog; a record it accepts must be exactly the bytes
// appendRecord writes for it at that LSN; and no single-byte corruption of
// an accepted record may be accepted in its place.
func FuzzWALDecode(f *testing.F) {
	lsn := int64(0)
	for _, r := range replayRecords {
		buf := appendRecord(nil, r, lsn)
		for _, expect := range []int64{lsn, lsn + 1, -1} {
			f.Add(buf, expect, byte(0x01))
			f.Add(append(buf[:len(buf):len(buf)], 0xA5, 0x00), expect, byte(0x80))
			for _, cut := range []int{0, 1, 10, headerSize - 1, headerSize, len(buf) - 1} {
				f.Add(buf[:cut], expect, byte(0xFF))
			}
		}
		lsn += int64(len(buf))
	}
	f.Fuzz(func(t *testing.T, data []byte, expect int64, flip byte) {
		r, n, err := decode(data, expect)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrEndOfLog) {
				t.Fatalf("decode: unexpected error %v", err)
			}
			return
		}
		if n < headerSize || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		at := int64(binary.LittleEndian.Uint64(data[10:]))
		if expect >= 0 && at != expect {
			t.Fatalf("decode accepted a record stamped %d at offset %d", at, expect)
		}
		if again := appendRecord(nil, r, at); !bytes.Equal(again, data[:n]) {
			t.Fatalf("accepted record re-encodes differently:\n got  %x\n from %x", again, data[:n])
		}
		if flip == 0 {
			flip = 0xFF
		}
		bad := append([]byte(nil), data[:n]...)
		for i := range bad {
			bad[i] ^= flip
			if _, _, err := decode(bad, expect); err == nil {
				t.Fatalf("byte %d ^ %#x of a valid %d-byte record went undetected", i, flip, n)
			}
			bad[i] ^= flip
		}
	})
}

func TestDecodeRejectsCorruption(t *testing.T) {
	buf := appendRecord(nil, Record{Kind: KindPut, Txn: 1, Key: []byte("k"), Value: []byte("v")}, 0)
	buf[len(buf)-1] ^= 0xFF
	if _, _, err := decode(buf, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip not detected: %v", err)
	}
	short := appendRecord(nil, Record{Kind: KindPut}, 0)[:10]
	if _, _, err := decode(short, 0); !errors.Is(err, ErrEndOfLog) {
		t.Fatalf("short buffer: %v", err)
	}
	bad := appendRecord(nil, Record{Kind: KindPut}, 0)
	bad[0] = 0x00
	if _, _, err := decode(bad, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
}

func TestCommitMakesDurable(t *testing.T) {
	eng, w := newPCMWAL(t)
	eng.Go(func(p *sim.Proc) {
		if _, err := w.Append(p, Record{Kind: KindPut, Txn: 1, Key: []byte("a"), Value: []byte("1")}); err != nil {
			t.Errorf("append: %v", err)
		}
		if err := commit(p, w, 1); err != nil {
			t.Errorf("commit: %v", err)
		}
		if w.durable != w.LogDevice().Tail() {
			t.Error("commit left undurable bytes")
		}
	})
	eng.Run()
	if w.Syncs != 1 || w.Commits != 1 {
		t.Fatalf("syncs=%d commits=%d", w.Syncs, w.Commits)
	}
}

func TestGroupCommitBatchesSyncs(t *testing.T) {
	eng, w := newPCMWAL(t)
	const clients = 16
	for i := 0; i < clients; i++ {
		i := i
		eng.Go(func(p *sim.Proc) {
			for round := 0; round < 10; round++ {
				w.Append(p, Record{Kind: KindPut, Txn: uint64(i), Key: []byte{byte(i)}, Value: []byte{byte(round)}})
				if err := commit(p, w, uint64(i)); err != nil {
					t.Errorf("commit: %v", err)
				}
			}
		})
	}
	eng.Run()
	if w.Commits != clients*10 {
		t.Fatalf("commits = %d", w.Commits)
	}
	if w.Syncs >= w.Commits {
		t.Fatalf("no batching: %d syncs for %d commits", w.Syncs, w.Commits)
	}
}

// newBlockWAL is a WAL over the conservative stack's block log: a sync is
// a page write plus a device flush, hundreds of microseconds in which
// later commits queue up behind it.
func newBlockWAL(t *testing.T) (*sim.Engine, *WAL) {
	t.Helper()
	eng, stack := newBlockStack(t)
	log, err := core.NewBlockLog(stack, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	return eng, New(eng, log)
}

// newBlockStack is a single-queue stack over a small enterprise device.
func newBlockStack(t *testing.T) (*sim.Engine, *blockdev.Stack) {
	t.Helper()
	eng := sim.NewEngine()
	dev, err := ssd.Build(eng, ssd.Enterprise2012, ssd.Options{
		Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 32, PagesPerBlock: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := blockdev.DefaultConfig(blockdev.SingleQueue)
	cfg.CPUs = 1
	stack, err := blockdev.New(eng, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, stack
}

// TestAsyncCommitsRideOneSync: commits handed off while the writer's
// sync is in flight all ride the next one — two syncs for the first
// commit and the n behind it, not n+1 — and their callbacks fire in log
// order, each once its record is durable, none before.
func TestAsyncCommitsRideOneSync(t *testing.T) {
	eng, w := newBlockWAL(t)
	const n = 6
	var order []uint64
	end := map[uint64]int64{}
	eng.Go(func(p *sim.Proc) {
		commit := func(txn uint64) {
			err := w.CommitAsync(p, txn, func(err error) {
				if err != nil {
					t.Errorf("commit %d: %v", txn, err)
				}
				if w.durable < end[txn] {
					t.Errorf("commit %d settled at durable %d, before its record's end %d", txn, w.durable, end[txn])
				}
				order = append(order, txn)
			})
			if err != nil {
				t.Fatalf("commit %d: %v", txn, err)
			}
			end[txn] = w.LogDevice().Tail()
		}
		commit(0)
		p.Sleep(sim.Microsecond) // the writer's first sync is now in flight
		for txn := uint64(1); txn <= n; txn++ {
			commit(txn)
		}
		if len(order) != 0 {
			t.Errorf("callbacks %v fired while the first sync was still in flight", order)
		}
	})
	eng.Run()
	if want := []uint64{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(order, want) {
		t.Errorf("callbacks fired in order %v, want log order %v", order, want)
	}
	if w.Syncs != 2 || w.Commits != n+1 {
		t.Errorf("syncs = %d, commits = %d; want 2 syncs for %d commits", w.Syncs, w.Commits, n+1)
	}
}

// TestCloseFailsPendingCommitsOnce: Close settles every commit still
// waiting — the one in the sync in flight included — exactly once with
// its error, refuses later commits, and lets the writer exit, which
// Drain waits for.
func TestCloseFailsPendingCommitsOnce(t *testing.T) {
	eng, w := newBlockWAL(t)
	errCrash := errors.New("power lost")
	fired := make([]int, 4)
	eng.Go(func(p *sim.Proc) {
		for txn := range fired {
			if err := w.CommitAsync(p, uint64(txn), func(err error) {
				fired[txn]++
				if !errors.Is(err, errCrash) {
					t.Errorf("commit %d settled with %v, want the close error", txn, err)
				}
			}); err != nil {
				t.Fatalf("commit %d: %v", txn, err)
			}
			if txn == 0 {
				p.Sleep(sim.Microsecond) // commit 0's sync is in flight
			}
		}
		w.Close(errCrash)
		if err := w.CommitAsync(p, 9, func(error) { t.Error("a commit after Close was handed off") }); !errors.Is(err, errCrash) {
			t.Errorf("commit after Close: %v, want the close error", err)
		}
		// Drain waits out commit 0's sync — a page write plus a flush —
		// and the writer starts no other.
		closedAt := p.Now()
		w.Drain(p)
		if p.Now() == closedAt || w.Syncs != 1 {
			t.Errorf("Drain returned after %v with %d syncs; want the one in flight waited out", p.Now()-closedAt, w.Syncs)
		}
	})
	eng.Run()
	for txn, n := range fired {
		if n != 1 {
			t.Errorf("commit %d settled %d times, want once", txn, n)
		}
	}
}

// replayRecords is the log TestScanReplaysInOrder writes and reads back;
// FuzzWALDecode starts from the same records.
var replayRecords = []Record{
	{Kind: KindPut, Txn: 1, Key: []byte("a"), Value: []byte("1")},
	{Kind: KindPut, Txn: 1, Key: []byte("b"), Value: []byte("2")},
	{Kind: KindCommit, Txn: 1},
	{Kind: KindDelete, Txn: 2, Key: []byte("a")},
	{Kind: KindCommit, Txn: 2},
}

func TestScanReplaysInOrder(t *testing.T) {
	eng, w := newPCMWAL(t)
	want := replayRecords
	eng.Go(func(p *sim.Proc) {
		for _, r := range want {
			if r.Kind == KindCommit {
				if err := commit(p, w, r.Txn); err != nil {
					t.Fatalf("commit: %v", err)
				}
				continue
			}
			if _, err := w.Append(p, r); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		var got []Record
		if err := w.Recover(p, 0, func(_ int64, r Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("scan: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("scanned %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Kind != want[i].Kind || got[i].Txn != want[i].Txn ||
				!bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
	eng.Run()
}

// A checkpoint truncates the log device at its horizon: recovery from
// there replays only the records appended since.
func TestCheckpointTruncates(t *testing.T) {
	eng, w := newPCMWAL(t)
	eng.Go(func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			w.Append(p, Record{Kind: KindPut, Txn: 1, Key: []byte{byte(i)}, Value: []byte("x")})
		}
		commit(p, w, 1)
		horizon := w.LogDevice().Tail()
		if err := w.LogDevice().Truncate(horizon); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		w.Append(p, Record{Kind: KindPut, Txn: 2, Key: []byte("k"), Value: []byte("y")})
		commit(p, w, 2)
		var got []Record
		w.Recover(p, horizon, func(_ int64, r Record) error {
			got = append(got, r)
			return nil
		})
		if len(got) != 2 || got[0].Kind != KindPut || got[0].Txn != 2 || got[1].Kind != KindCommit {
			t.Errorf("scanned %+v after the horizon, want txn 2's put and commit", got)
		}
	})
	eng.Run()
}

func TestPCMCommitLatencyIsMicroseconds(t *testing.T) {
	eng, w := newPCMWAL(t)
	var elapsed sim.Time
	eng.Go(func(p *sim.Proc) {
		start := p.Now()
		w.Append(p, Record{Kind: KindPut, Txn: 1, Key: []byte("k"), Value: make([]byte, 100)})
		commit(p, w, 1)
		elapsed = p.Now() - start
	})
	eng.Run()
	if elapsed > 20*sim.Microsecond {
		t.Fatalf("PCM commit took %v; the sync path should be microseconds", elapsed)
	}
}

func TestRecoverFindsTrueTail(t *testing.T) {
	eng, w := newPCMWAL(t)
	eng.Go(func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if _, err := w.Append(p, Record{Kind: KindPut, Txn: 1, Key: []byte{byte(i)}, Value: []byte("v")}); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if err := commit(p, w, 1); err != nil {
			t.Fatalf("commit: %v", err)
		}
		// Simulate a crash: rebuild a fresh WAL over the same device
		// with zeroed bookkeeping, then recover.
		w2 := New(eng, w.LogDevice())
		if err := w2.LogDevice().Reset(p, 0, 0); err != nil {
			t.Fatalf("amnesia reset: %v", err)
		}
		var got []Record
		if err := w2.Recover(p, 0, func(_ int64, r Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if len(got) != 9 { // 8 puts + 1 commit
			t.Fatalf("recovered %d records, want 9", len(got))
		}
		// The WAL must be appendable after recovery.
		if _, err := w2.Append(p, Record{Kind: KindPut, Txn: 2, Key: []byte("x"), Value: []byte("y")}); err != nil {
			t.Fatalf("append after recover: %v", err)
		}
		if err := commit(p, w2, 2); err != nil {
			t.Fatalf("commit after recover: %v", err)
		}
	})
	eng.Run()
}

// A block log hands the buffer of a page a checkpoint truncated to the
// next page its appends cross into. Commits of varied sizes, with a
// checkpoint (the log truncated at its tail) after every fourth, lap a
// 4-page ring several times, so the log keeps writing reused buffers. After every commit the device must
// hold zeros past the log's tail, as it would had every page been a new
// buffer (a reused one written back uncleared leaves an earlier page's
// bytes there). Then the host loses everything it held (power loss, and
// a fresh log and WAL over the same region) and recovers from the last
// checkpoint: it must replay exactly the records acknowledged since, in
// order.
func TestBlockLogReusedPagesRecoverAcknowledged(t *testing.T) {
	eng, stack := newBlockStack(t)
	const ringPages = 4
	log, err := core.NewBlockLog(stack, 0, ringPages)
	if err != nil {
		t.Fatal(err)
	}
	ps := int64(stack.Device().PageSize())
	zeroPastTail := func(p *sim.Proc, l *core.BlockLog) {
		tail := l.Tail()
		rest, err := l.RawReadAt(p, tail, int(ps-tail%ps))
		if err != nil {
			t.Fatalf("read past the tail: %v", err)
		}
		if i := slices.IndexFunc(rest, func(b byte) bool { return b != 0 }); i >= 0 {
			t.Fatalf("byte %d of the log, past its tail at %d, is %#x on the device, want 0", tail+int64(i), tail, rest[i])
		}
	}
	w := New(eng, log)
	rng := sim.NewRNG(3)
	var acked []Record // since the last checkpoint
	var head int64
	eng.Go(func(p *sim.Proc) {
		for txn := uint64(1); txn <= 42; txn++ {
			var recs []Record
			for i := 0; i < 3; i++ {
				v := make([]byte, 100+rng.Intn(800))
				for j := range v {
					v[j] = byte(rng.Uint64())
				}
				r := Record{Kind: KindPut, Txn: txn, Key: binary.BigEndian.AppendUint64(nil, txn*8+uint64(i)), Value: v}
				if _, err := w.Append(p, r); err != nil {
					t.Fatalf("txn %d append: %v", txn, err)
				}
				recs = append(recs, r)
			}
			if err := commit(p, w, txn); err != nil {
				t.Fatalf("txn %d commit: %v", txn, err)
			}
			acked = append(acked, append(recs, Record{Kind: KindCommit, Txn: txn})...)
			zeroPastTail(p, log)
			if txn%4 == 0 && txn < 40 {
				head = log.Tail()
				if err := log.Truncate(head); err != nil {
					t.Fatalf("checkpoint after txn %d: %v", txn, err)
				}
				acked = nil
			}
		}
		if log.Tail() < 3*ringPages*ps {
			t.Fatalf("the log reached byte %d: fewer than three laps of the ring", log.Tail())
		}
		stack.Device().(*ssd.Device).Crash()
		log2, err := core.NewBlockLog(stack, 0, ringPages)
		if err != nil {
			t.Fatal(err)
		}
		var got []Record
		if err := New(eng, log2).Recover(p, head, func(_ int64, r Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if len(got) != len(acked) {
			t.Fatalf("recovered %d records after the checkpoint at %d, want the %d acknowledged", len(got), head, len(acked))
		}
		for i := range got {
			g, a := got[i], acked[i]
			if g.Kind != a.Kind || g.Txn != a.Txn || !bytes.Equal(g.Key, a.Key) || !bytes.Equal(g.Value, a.Value) {
				t.Fatalf("record %d recovered as kind %d txn %d, want kind %d txn %d", i, g.Kind, g.Txn, a.Kind, a.Txn)
			}
		}
		zeroPastTail(p, log2)
	})
	eng.Run()
}

// commit appends txn's commit record and blocks until it is durable.
func commit(p *sim.Proc, w *WAL, txn uint64) error {
	return p.Await(func(done func(error)) error { return w.CommitAsync(p, txn, done) })
}
