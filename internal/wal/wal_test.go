package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
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

// flushDev is a device whose writes are acknowledged after 10µs, in
// issue order, and whose flushes take the durations in flushes, in
// issue order (100µs once they run out): a test picks which of two
// overlapping syncs finishes first. It keeps no data and allocates
// nothing per command once warm.
type flushDev struct {
	eng     *sim.Engine
	flushes []sim.Time
	acks    sim.Queue[func(error)]
	ack     func()
}

func newFlushDev(eng *sim.Engine, flushes ...sim.Time) *flushDev {
	d := &flushDev{eng: eng, flushes: flushes}
	d.ack = func() { d.acks.Pop()(nil) }
	return d
}

func (d *flushDev) Name() string                           { return "flush" }
func (d *flushDev) PageSize() int                          { return 512 }
func (d *flushDev) Capacity() int64                        { return 64 }
func (d *flushDev) Trim(int64) error                       { return nil }
func (d *flushDev) Metrics() *ssd.DeviceMetrics            { return &ssd.DeviceMetrics{} }
func (d *flushDev) Read(_ int64, done func([]byte, error)) { done(nil, nil) }
func (d *flushDev) Write(_ int64, _ []byte, done func(error)) {
	d.acks.Push(done)
	d.eng.After(10*sim.Microsecond, d.ack)
}

func (d *flushDev) Flush(done func()) {
	lat := 100 * sim.Microsecond
	if len(d.flushes) > 0 {
		lat, d.flushes = d.flushes[0], d.flushes[1:]
	}
	d.eng.After(lat, done)
}

// newFlushWAL is a WAL over a block log on a direct stack over a
// flushDev with the given flush durations.
func newFlushWAL(t *testing.T, flushes ...sim.Time) (*sim.Engine, *WAL) {
	t.Helper()
	eng := sim.NewEngine()
	stack, err := blockdev.New(eng, newFlushDev(eng, flushes...), blockdev.DefaultConfig(blockdev.Direct))
	if err != nil {
		t.Fatal(err)
	}
	log, err := core.NewBlockLog(stack, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	return eng, New(eng, log)
}

// overlapCommits hands off four commits on an idle device: commit 0
// starts a sync, commit 1 lands during its flush and starts a second
// at once, and commits 2 and 3 land during the second's page write, so
// they start a third that waits for that write and takes both.
func overlapCommits(p *sim.Proc, w *WAL, done func(txn uint64) func(error)) error {
	start := p.Now()
	for txn, at := range []sim.Time{0, 50, 54, 56} {
		p.Sleep(start + at*sim.Microsecond - p.Now())
		if err := w.CommitAsync(p, uint64(txn), done(uint64(txn))); err != nil {
			return err
		}
	}
	return nil
}

// Two syncs in flight, the later one finishing first: the commits still
// settle in log order, each exactly once, and none before the sync that
// covers it and every earlier sync have finished.
func TestOverlappedSyncsSettleInLogOrder(t *testing.T) {
	const slow = sim.Millisecond
	eng, w := newFlushWAL(t, slow)
	var order []uint64
	var at []sim.Time
	eng.Go(func(p *sim.Proc) {
		err := overlapCommits(p, w, func(txn uint64) func(error) {
			return func(err error) {
				if err != nil {
					t.Errorf("commit %d: %v", txn, err)
				}
				order = append(order, txn)
				at = append(at, p.Now())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	if want := []uint64{0, 1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("commits settled in order %v, want log order %v", order, want)
	}
	if at[1] < slow {
		t.Errorf("commit 1 settled at %v, before commit 0's sync (a %v flush) finished", at[1], slow)
	}
	if w.Syncs != 3 || w.Overlapped != 2 {
		t.Errorf("%d syncs, %d overlapped; want 3 and 2 (commits 2 and 3 ride one)", w.Syncs, w.Overlapped)
	}
}

// Close with three syncs in flight fails every commit exactly once with
// the close error, and Drain returns only once the last sync is off the
// device.
func TestCloseWithSyncsInFlight(t *testing.T) {
	const slow = sim.Millisecond
	eng, w := newFlushWAL(t, slow)
	errCrash := errors.New("power lost")
	fired := make([]int, 4)
	eng.Go(func(p *sim.Proc) {
		err := overlapCommits(p, w, func(txn uint64) func(error) {
			return func(err error) {
				fired[txn]++
				if !errors.Is(err, errCrash) {
					t.Errorf("commit %d settled with %v, want the close error", txn, err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Sleep(300 * sim.Microsecond) // the later syncs are done, the first is flushing
		w.Close(errCrash)
		w.Drain(p)
		if p.Now() < slow {
			t.Errorf("Drain returned at %v, before the first sync's flush finished", p.Now())
		}
	})
	eng.Run()
	for txn, n := range fired {
		if n != 1 {
			t.Errorf("commit %d settled %d times, want once", txn, n)
		}
	}
}

// Power lost with two syncs in flight loses no acknowledged commit.
// Four committers append a put and commit it, with think times, on a
// device whose write buffer is volatile (a crash drops what no flush
// covered), so commits land during syncs and overlap them. In each
// round the power fails the first time two syncs are in flight after a
// number of overlaps: the host stops (Close) and the device drops its
// buffer at that instant, and the syncs' commands still in the device
// finish (Drain). Recovery over a fresh log and WAL must find every
// commit acknowledged before the crash, with its put.
func TestCrashWithSyncsInFlightKeepsAcked(t *testing.T) {
	errCrash := errors.New("power lost")
	for round := 1; round <= 6; round++ {
		eng := sim.NewEngine()
		dev, err := ssd.Build(eng, ssd.Enterprise2012, ssd.Options{
			Channels: 2, ChipsPerChannel: 2, BlocksPerPlane: 32, PagesPerBlock: 8, BufferVolatile: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		stack, err := blockdev.New(eng, dev, blockdev.DefaultConfig(blockdev.Direct))
		if err != nil {
			t.Fatal(err)
		}
		log, err := core.NewBlockLog(stack, 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		w := New(eng, log)
		rng := sim.NewRNG(uint64(round))
		acked := map[uint64]Record{}
		var txns uint64
		for c := 0; c < 4; c++ {
			eng.Go(func(p *sim.Proc) {
				for {
					p.Sleep(sim.Time(rng.Intn(400)) * sim.Microsecond)
					txns++
					txn := txns
					r := Record{Kind: KindPut, Txn: txn, Key: binary.BigEndian.AppendUint64(nil, txn), Value: bytes.Repeat([]byte{byte(txn)}, 100+rng.Intn(300))}
					if _, err := w.Append(p, r); err != nil {
						return
					}
					if commit(p, w, txn) != nil {
						return
					}
					acked[txn] = r
				}
			})
		}
		eng.Go(func(p *sim.Proc) {
			for w.Overlapped < int64(8*round+8) || w.syncing < 2 {
				p.Sleep(sim.Microsecond)
			}
			w.Close(errCrash)
			dev.(*ssd.Device).Crash()
			w.Drain(p)
			fresh, err := core.NewBlockLog(stack, 0, 64)
			if err != nil {
				t.Fatal(err)
			}
			puts := map[uint64]Record{}
			committed := map[uint64]bool{}
			if err := New(eng, fresh).Recover(p, 0, func(_ int64, r Record) error {
				if r.Kind == KindCommit {
					committed[r.Txn] = true
				} else {
					puts[r.Txn] = r
				}
				return nil
			}); err != nil {
				t.Fatalf("round %d: recover: %v", round, err)
			}
			for txn, want := range acked {
				got, ok := puts[txn]
				if !committed[txn] || !ok || !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
					t.Errorf("round %d: acknowledged txn %d did not recover (committed %v, put %v)", round, txn, committed[txn], ok)
				}
			}
			if len(acked) < 8 {
				t.Errorf("round %d: only %d commits acknowledged before the crash", round, len(acked))
			}
		})
		eng.Run()
	}
}

// A warm log whose syncs overlap allocates nothing per commit: the
// writers, their processes and callbacks, the block log's waits and the
// stack's records are all pooled. Each round hands off the four commits
// of overlapCommits (three syncs, two of them overlapped), waits for
// them and truncates the log. The rounds after the first twelve are
// measured: by then the log has crossed into a new page twice, so the
// pools hold what a sync that writes two pages needs.
func TestOverlappedCommitsAllocateNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng, w := newFlushWAL(t)
	const rounds, warm = 48, 12
	var mallocs uint64
	eng.Go(func(p *sim.Proc) {
		settled := 0
		landed := func(err error) {
			if err != nil {
				t.Errorf("commit: %v", err)
			}
			settled++
		}
		done := func(uint64) func(error) { return landed }
		var before, after runtime.MemStats
		for round := 0; round < rounds; round++ {
			runtime.ReadMemStats(&before)
			if err := overlapCommits(p, w, done); err != nil {
				t.Fatal(err)
			}
			for settled < 4*(round+1) {
				p.Sleep(100 * sim.Microsecond)
			}
			if err := w.LogDevice().Truncate(w.LogDevice().Tail()); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if round >= warm {
				mallocs += after.Mallocs - before.Mallocs
			}
		}
	})
	eng.Run()
	if w.Overlapped != 2*rounds {
		t.Fatalf("%d of %d syncs overlapped, want %d", w.Overlapped, w.Syncs, 2*rounds)
	}
	if mallocs != 0 {
		t.Errorf("%d warm rounds of 4 commits over overlapping syncs allocated %d times, want 0", rounds-warm, mallocs)
	}
}
