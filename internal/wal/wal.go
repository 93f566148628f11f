// Package wal implements a write-ahead log with pipelined group commit
// over either synchronous-domain device of package core: PCM on the
// memory bus (the paper's §3 recommendation for "synchronous patterns:
// log writes") or a page region of a block device (the conservative
// baseline). The record format is self-describing and checksummed, so
// recovery can scan the log after a crash.
//
// One log writer process per WAL does every sync. A committer appends
// its records and its commit record, hands the commit to the writer
// (CommitAsync) and goes on; everything appended while a sync is in
// flight rides the next one, and each commit's callback fires, in log
// order, once its record is durable — an acknowledgement means the
// commit record and every record before it are on the device. The
// writer's is the only sync of the log. It starts with the first
// commit and parks between syncs uncounted by the engine
// (sim.Proc.Park), so a simulation with nothing left to do still
// drains. Close is the host half of a crash: every commit not yet
// durable fails, exactly once, with the close error, and Drain waits
// until the sync in flight is off the device.
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

// WAL is the write-ahead log with pipelined group commit. One writer
// process per WAL does every sync: a committer appends its commit
// record, hands the commit to the writer and goes on, and everything
// appended while a sync is in flight rides the next one — the log
// writer of Aether's flush pipelining (Johnson et al., VLDB 2010) — so
// no committer ever waits out a sync it is not in.
type WAL struct {
	eng *sim.Engine
	log core.LogDevice

	durable int64 // bytes made durable so far

	// The writer starts with the first commit and parks between syncs,
	// uncounted by the engine (sim.Proc.Park), so Run drains past it.
	// next holds the commits appended since the sync in flight began,
	// batch the ones that sync covers; batch[:fired] have been settled.
	writer      *sim.Proc
	running     bool
	next, batch []func(error)
	fired       int
	// closed is the error every commit fails with after Close; exited
	// fires when the writer exits (created by the first Drain to wait).
	closed error
	exited *sim.Cond

	// enc is Append's encode scratch. An append holds it while its device
	// write runs, so one that overlaps it (a PCM store yields) encodes
	// into fresh memory instead.
	enc []byte

	// Syncs counts physical sync operations; Commits counts commits.
	// Commits/Syncs is the group-commit batching factor.
	Syncs   int64
	Commits int64
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
// to the log writer and returns without waiting. done fires exactly
// once, from the writer and in log order: nil once the record is
// durable, or the error that kept it from becoming so. An append error
// is returned instead, and done never fires.
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

// handOff queues done for the sync after the one in flight, starting or
// waking the writer.
func (w *WAL) handOff(done func(error)) error {
	if w.closed != nil {
		return w.closed
	}
	w.next = append(w.next, done)
	switch {
	case !w.running:
		w.running = true
		w.eng.Go(w.write)
	case w.writer != nil:
		w.writer.Unpark()
	}
	return nil
}

// write is the log writer: take every commit queued so far, sync once,
// settle them in log order, repeat; park while nothing is queued. It
// exits on Close, or when the engine releases it with nothing left to
// run (the next commit starts a new writer).
func (w *WAL) write(p *sim.Proc) {
	w.writer = p
	for w.closed == nil {
		if len(w.next) == 0 {
			if !p.Park() {
				break
			}
			continue
		}
		w.batch, w.next = w.next, w.batch
		covered := w.log.Tail()
		w.Syncs++
		err := w.log.Sync(p)
		if err != nil {
			err = fmt.Errorf("wal: sync: %w", err)
		} else if covered > w.durable {
			w.durable = covered
		}
		w.settle(err)
	}
	w.writer, w.running = nil, false
	if c := w.exited; c != nil {
		w.exited = nil
		c.Fire()
	}
}

// settle fires the unsettled commits of the batch with err, in log
// order, then empties it. A callback may Close the WAL, which settles
// the rest of the batch itself: fired is advanced before each call.
func (w *WAL) settle(err error) {
	for w.fired < len(w.batch) {
		done := w.batch[w.fired]
		w.batch[w.fired] = nil
		w.fired++
		done(err)
	}
	w.batch, w.fired = w.batch[:0], 0
}

// Close fails every commit not yet durable with err and refuses later
// ones with it: the host memory that would have acknowledged them is
// gone (a crash abandons the store). A sync in flight finishes but
// settles nothing, and the writer exits.
func (w *WAL) Close(err error) {
	if w.closed != nil {
		return
	}
	w.closed = err
	w.settle(err)
	w.batch, w.next = w.next, w.batch
	w.settle(err)
	if w.writer != nil {
		w.writer.Unpark()
	}
}

// Drain blocks p until the log writer has exited: after Close, no sync
// of this log is then in flight.
func (w *WAL) Drain(p *sim.Proc) {
	if !w.running {
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
