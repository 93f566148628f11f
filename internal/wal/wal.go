// Package wal implements a write-ahead log with pipelined group commit
// over either synchronous-domain device of package core: PCM on the
// memory bus (the paper's §3 recommendation for "synchronous patterns:
// log writes") or a page region of a block device (the conservative
// baseline). The record format is self-describing and checksummed, so
// recovery can scan the log after a crash.
//
// Pooled log writer processes do every sync. A committer appends its
// records and its commit record, hands the commit to the writers
// (CommitAsync) and goes on. A commit that lands while a sync is in
// flight starts the next sync at once when the log says the device
// would take its flush at once (core.LogDevice.SyncNow: a block log
// whose stack has a free device-queue slot and an empty scheduler
// backlog); otherwise it rides the sync that starts when the one in
// flight finishes. An overlapping sync on a block log issues its page
// writes only once the earlier sync's are acknowledged, and commits
// that land while it waits ride it. Each commit's callback fires, in log order
// whatever order the syncs finish in, once its record is durable — an
// acknowledgement means the commit record and every record before it
// are on the device. A writer parks between syncs uncounted by the
// engine (sim.Proc.Park), so a simulation with nothing left to do still
// drains. Close is the host half of a crash: every commit not yet
// durable fails, exactly once, with the close error, and Drain waits
// until every sync in flight is off the device.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
)

// Package errors.
var (
	// ErrCorrupt reports a record failing its checksum (torn write).
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrEndOfLog reports a clean end of the record stream.
	ErrEndOfLog = errors.New("wal: end of log")
)

// Kind tags a log record.
type Kind uint8

// Record kinds.
const (
	// KindPut logs a key/value insertion or update.
	KindPut Kind = iota + 1
	// KindDelete logs a key removal.
	KindDelete
	// KindCommit marks a transaction durable.
	KindCommit
)

// Record is one WAL entry.
type Record struct {
	Kind  Kind
	Txn   uint64
	Key   []byte
	Value []byte
}

// header: magic(1) kind(1) txn(8) lsn(8) klen(4) vlen(4) crc(4) = 30
// bytes. The embedded LSN lets a ring-recovery scan reject stale records
// from a previous lap of the ring: a record is only valid at the offset
// it was written to.
const headerSize = 30

const magic = 0xA5

// appendRecord serializes r, stamped with the LSN it will occupy, into
// dst's storage (grown if it is short).
func appendRecord(dst []byte, r Record, lsn int64) []byte {
	n := headerSize + len(r.Key) + len(r.Value)
	buf := slices.Grow(dst[:0], n)[:n]
	buf[0] = magic
	buf[1] = byte(r.Kind)
	binary.LittleEndian.PutUint64(buf[2:], r.Txn)
	binary.LittleEndian.PutUint64(buf[10:], uint64(lsn))
	binary.LittleEndian.PutUint32(buf[18:], uint32(len(r.Key)))
	binary.LittleEndian.PutUint32(buf[22:], uint32(len(r.Value)))
	copy(buf[headerSize:], r.Key)
	copy(buf[headerSize+len(r.Key):], r.Value)
	crc := crc32.ChecksumIEEE(buf[headerSize:])
	crc = crc32.Update(crc, crc32.IEEETable, buf[:26])
	binary.LittleEndian.PutUint32(buf[26:], crc)
	return buf
}

// decode parses one record from b, validating the checksum and, when
// expectLSN >= 0, the embedded LSN.
func decode(b []byte, expectLSN int64) (Record, int, error) {
	if len(b) < headerSize {
		return Record{}, 0, ErrEndOfLog
	}
	if b[0] != magic {
		return Record{}, 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, b[0])
	}
	lsn := int64(binary.LittleEndian.Uint64(b[10:]))
	if expectLSN >= 0 && lsn != expectLSN {
		return Record{}, 0, fmt.Errorf("%w: stale record (lsn %d at offset %d)", ErrCorrupt, lsn, expectLSN)
	}
	klen := binary.LittleEndian.Uint32(b[18:])
	vlen := binary.LittleEndian.Uint32(b[22:])
	total := headerSize + int(klen) + int(vlen)
	if klen > 1<<20 || vlen > 1<<24 || len(b) < total {
		return Record{}, 0, fmt.Errorf("%w: truncated record", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(b[26:])
	crc := crc32.ChecksumIEEE(b[headerSize:total])
	crc = crc32.Update(crc, crc32.IEEETable, b[:26])
	if crc != want {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r := Record{
		Kind: Kind(b[1]),
		Txn:  binary.LittleEndian.Uint64(b[2:]),
	}
	if klen > 0 {
		r.Key = append([]byte(nil), b[headerSize:headerSize+klen]...)
	}
	if vlen > 0 {
		r.Value = append([]byte(nil), b[headerSize+klen:total]...)
	}
	return r, total, nil
}

// WAL is the write-ahead log with pipelined group commit. Pooled log
// writer processes do every sync: a committer appends its commit
// record, hands the commit to the writers and goes on — the log writer
// of Aether's flush pipelining (Johnson et al., VLDB 2010) — so no
// committer ever waits out a sync it is not in. A commit that lands
// while a sync is in flight starts the next sync at once when the
// device would take its flush at once (core.LogDevice.SyncNow), and
// otherwise rides the sync after the one in flight. Commits settle in
// log order whatever order the syncs finish in.
type WAL struct {
	eng *sim.Engine
	log core.LogDevice

	durable int64 // bytes made durable so far

	// Writers park between syncs, uncounted by the engine
	// (sim.Proc.Park), so Run drains past them. flight holds the writers
	// whose syncs have begun and not yet settled, oldest first; syncing
	// counts the syncs on the device, begun or waiting to begin. waking
	// is a writer handed work whose sync has not yet begun, and tending
	// is set while a writer settles: either takes what next holds, so a
	// commit handed off meanwhile starts nothing. next holds the commits
	// no sync has taken yet.
	all     []*writer
	idle    sim.Pool[writer]
	flight  sim.Queue[*writer]
	syncing int
	waking  *writer
	tending bool
	next    []func(error)
	// live counts the writers' processes, started and not yet exited.
	// closed is the error every commit fails with after Close; exited
	// fires when the last process exits (created by the first Drain to
	// wait).
	live   int
	closed error
	exited *sim.Cond

	// enc is Append's encode scratch. An append holds it while its device
	// write runs, so one that overlaps it (a PCM store yields) encodes
	// into fresh memory instead.
	enc []byte

	// Syncs counts physical sync operations; Commits counts commits.
	// Commits/Syncs is the group-commit batching factor. Overlapped
	// counts the syncs that began while an earlier one was in flight.
	Syncs      int64
	Commits    int64
	Overlapped int64
}

// writer is a pooled log writer: its process, bound once, and the sync
// it runs — the commits the sync covers (batch[:fired] settled), the
// log offset it makes durable and its outcome.
type writer struct {
	w     *WAL
	p     *sim.Proc
	run   func(*sim.Proc)
	begin func() // takes the batch as the sync begins (core.LogDevice.Sync)
	work  bool   // handed work it has not yet taken
	batch []func(error)
	fired int

	covered int64
	err     error
	done    bool // the sync is off the device
}

// New builds a WAL over a core log device.
func New(eng *sim.Engine, log core.LogDevice) *WAL {
	return &WAL{eng: eng, log: log}
}

// LogDevice exposes the underlying device.
func (w *WAL) LogDevice() core.LogDevice { return w.log }

// Append stages a record without waiting for durability and returns its
// LSN (byte offset). The tail read and the device append happen without
// an intervening yield, so the stamped LSN always matches the offset.
func (w *WAL) Append(p *sim.Proc, r Record) (int64, error) {
	if w.closed != nil {
		return 0, w.closed
	}
	lsn := w.log.Tail()
	buf := appendRecord(w.enc, r, lsn)
	w.enc = nil
	off, err := w.log.Append(p, buf)
	w.enc = buf
	if err != nil {
		return 0, err
	}
	if off != lsn {
		return 0, fmt.Errorf("wal: reserved lsn %d but wrote at %d", lsn, off)
	}
	return off, nil
}

// CommitAsync appends the transaction's commit record, hands the commit
// to the log writers and returns without waiting. done fires exactly
// once, from a writer and in log order: nil once the record is durable,
// or the error that kept it from becoming so. An append error is
// returned instead, and done never fires.
func (w *WAL) CommitAsync(p *sim.Proc, txn uint64, done func(error)) error {
	if _, err := w.Append(p, Record{Kind: KindCommit, Txn: txn}); err != nil {
		return err
	}
	if err := w.handOff(done); err != nil {
		return err
	}
	w.Commits++
	return nil
}

// handOff queues done for the next sync to begin, waking a writer when
// none is syncing or when the log would overlap a sync with the one in
// flight.
func (w *WAL) handOff(done func(error)) error {
	if w.closed != nil {
		return w.closed
	}
	w.next = append(w.next, done)
	if w.waking == nil && !w.tending && w.due() {
		w.wake()
	}
	return nil
}

// due reports whether the commits in next start a sync now: none is in
// flight, or the log would overlap one with those in flight.
func (w *WAL) due() bool { return w.syncing == 0 || w.log.SyncNow() }

// wake hands the commits in next to an idle writer, starting its
// process if the engine released it (or it is new).
func (w *WAL) wake() {
	wr := w.idle.Get()
	if wr == nil {
		wr = &writer{w: w}
		wr.run, wr.begin = wr.loop, wr.take
		w.all = append(w.all, wr)
	}
	wr.work, w.waking = true, wr
	if wr.p != nil {
		wr.p.Unpark()
		return
	}
	w.live++
	w.eng.Go(wr.run)
}

// loop is a writer's process: run the syncs it is handed, park in
// between. It exits on Close, or when the engine releases it with
// nothing left to run (the next wake starts a new process).
func (wr *writer) loop(p *sim.Proc) {
	w := wr.w
	wr.p = p
	for w.closed == nil {
		if !wr.work {
			if !p.Park() {
				break
			}
			continue
		}
		wr.work = false
		w.sync(p, wr)
	}
	if w.waking == wr {
		w.waking = nil
	}
	wr.p = nil
	if w.live--; w.live == 0 && w.exited != nil {
		c := w.exited
		w.exited = nil
		c.Fire()
	}
}

// sync runs one sync for every commit queued when it begins, and —
// once every earlier sync has settled — settles the finished syncs in
// log order, then takes the commits queued meanwhile if they are due. A
// sync that finishes before an earlier one leaves its settling to that
// one's writer.
func (w *WAL) sync(p *sim.Proc, wr *writer) {
	for {
		if w.syncing > 0 {
			w.Overlapped++
		}
		w.Syncs++
		w.syncing++
		err := w.log.Sync(p, wr.begin)
		w.syncing--
		if err != nil {
			err = fmt.Errorf("wal: sync: %w", err)
		}
		wr.err, wr.done = err, true
		if w.closed != nil || *w.flight.At(0) != wr {
			return
		}
		w.tending = true
		w.retire(wr)
		w.tending = false
		if w.closed != nil {
			return
		}
		if len(w.next) == 0 || w.waking != nil || !w.due() {
			w.idle.Put(wr)
			return
		}
	}
}

// take is a sync's beginning: it takes every commit queued so far and
// the log offset that makes them durable, and joins the flight.
func (wr *writer) take() {
	w := wr.w
	if w.waking == wr {
		w.waking = nil
	}
	wr.batch, w.next = w.next, wr.batch
	wr.covered = w.log.Tail()
	w.flight.Push(wr)
}

// retire settles the finished syncs at the head of the flight, oldest
// first, and puts their writers but self back in the pool. It stops at
// a sync still on the device, or when a callback closes the WAL (Close
// settles the rest).
func (w *WAL) retire(self *writer) {
	for w.flight.Len() > 0 {
		wr := *w.flight.At(0)
		if !wr.done {
			return
		}
		if wr.err == nil && wr.covered > w.durable {
			w.durable = wr.covered
		}
		wr.settle(wr.err)
		if w.closed != nil {
			return
		}
		w.flight.Pop()
		wr.done = false
		if wr != self {
			w.idle.Put(wr)
		}
	}
}

// settle fires the unsettled commits of the batch with err, in log
// order, then empties it. A callback may Close the WAL, which settles
// the rest of the batch itself: fired is advanced before each call.
func (wr *writer) settle(err error) {
	for wr.fired < len(wr.batch) {
		done := wr.batch[wr.fired]
		wr.batch[wr.fired] = nil
		wr.fired++
		done(err)
	}
	wr.batch, wr.fired = wr.batch[:0], 0
}

// Close fails every commit not yet durable with err and refuses later
// ones with it: the host memory that would have acknowledged them is
// gone (a crash abandons the store). The syncs in flight finish but
// settle nothing, and the writers exit.
func (w *WAL) Close(err error) {
	if w.closed != nil {
		return
	}
	w.closed = err
	for i := 0; i < w.flight.Len(); i++ {
		(*w.flight.At(i)).settle(err)
	}
	for i, done := range w.next {
		w.next[i] = nil
		done(err)
	}
	w.next = w.next[:0]
	for _, wr := range w.all {
		if wr.p != nil {
			wr.p.Unpark()
		}
	}
}

// Drain blocks p until every log writer has exited: after Close, no
// sync of this log is then in flight.
func (w *WAL) Drain(p *sim.Proc) {
	if w.live == 0 {
		return
	}
	if w.exited == nil {
		w.exited = sim.NewCond(w.eng)
	}
	w.exited.Await(p)
}

// Recover scans the log from head with no trusted host bookkeeping
// (after a crash): records are validated by magic, embedded LSN and
// checksum; the scan stops at the first invalid record, which is the
// true log tail. It resets the device window to [head, tail), replays
// every valid record through fn, and leaves the WAL ready for appends.
func (w *WAL) Recover(p *sim.Proc, head int64, fn func(lsn int64, r Record) error) error {
	off := head
	for {
		hdr, err := w.log.RawReadAt(p, off, headerSize)
		if err != nil {
			break
		}
		if hdr[0] != magic {
			break
		}
		if int64(binary.LittleEndian.Uint64(hdr[10:])) != off {
			break // stale record from a previous ring lap
		}
		klen := binary.LittleEndian.Uint32(hdr[18:])
		vlen := binary.LittleEndian.Uint32(hdr[22:])
		if klen > 1<<20 || vlen > 1<<24 {
			break
		}
		total := headerSize + int(klen) + int(vlen)
		buf, err := w.log.RawReadAt(p, off, total)
		if err != nil {
			break
		}
		rec, n, err := decode(buf, off)
		if err != nil {
			break
		}
		if err := fn(off, rec); err != nil {
			return err
		}
		off += int64(n)
	}
	if err := w.log.Reset(p, head, off); err != nil {
		return fmt.Errorf("wal: reset after recovery: %w", err)
	}
	w.durable = off
	return nil
}
