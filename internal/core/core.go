// Package core implements the paper's contribution: the storage
// interface that should replace the block device (§3, "Secondary
// storage revisited"). It rests on three principles:
//
//  1. Synchronous and asynchronous persistence are separated (Mohan):
//     synchronous patterns — log writes, commits — go to PCM on the
//     memory bus at store/fence granularity; asynchronous patterns —
//     lazy page writes, prefetching, reads — go to flash SSDs as I/O.
//
//  2. The memory abstraction gives way to a communication abstraction:
//     host and device are peers. The host can issue nameless writes
//     (the device picks the address and returns it), trim dead data,
//     and group writes atomically; the device notifies the host when
//     garbage collection relocates host-addressed pages.
//
//  3. The stack is streamlined like low-latency networking: the async
//     domain runs over the direct submission path, not the shared-lock
//     block layer.
//
// This package holds the parts: the two log devices (PCMLog, BlockLog),
// the page store over a region of a stack (StackPages), nameless
// objects and the atomic write. Package kvstore assembles them, into
// the paper's stack or into the conservative block-device stack, which
// is the paper-versus-baseline comparison of experiments E10-E12.
package core

import (
	"errors"

	"repro/internal/sim"
)

// Package errors.
var (
	// ErrLogFull reports sync-log exhaustion (checkpoint required).
	ErrLogFull = errors.New("core: sync log full")
	// ErrBadToken reports an unknown or deleted object token.
	ErrBadToken = errors.New("core: unknown object token")
)

// LogDevice is the synchronous persistence domain: an append-only byte
// log with explicit durability points. Two implementations exist: the
// progressive PCMLog (memory bus) and the conservative BlockLog
// (page-granular writes + flush through the block layer).
type LogDevice interface {
	// Append stages data at the log tail and returns its offset.
	// Durability requires Sync. The tail is reserved before the device
	// operation starts, so concurrent appenders never interleave bytes.
	Append(p *sim.Proc, data []byte) (int64, error)
	// Sync makes durable everything appended before it begins: begin,
	// if not nil, runs once at that point, and what is appended before
	// it returns is covered. Syncs may overlap: one that finds another's
	// device writes unacknowledged begins once they are, so the log's
	// bytes reach the device in append order and appends that land
	// while it waits ride it.
	Sync(p *sim.Proc, begin func()) error
	// SyncNow reports whether a Sync started now, beside the ones in
	// flight, would have its flush taken by the device at once. A log
	// whose syncs gain nothing by overlapping reports false.
	SyncNow() bool
	// RawReadAt reads bytes at any offset without bounds bookkeeping —
	// the crash-recovery scan path, where the host has lost head/tail
	// and validates records by checksum and embedded LSN instead.
	RawReadAt(p *sim.Proc, off int64, n int) ([]byte, error)
	// Reset rewinds host bookkeeping to the given window after
	// recovery decided where the valid log ends.
	Reset(p *sim.Proc, head, tail int64) error
	// Truncate discards the log prefix below head (checkpointing).
	Truncate(head int64) error
	// Tail reports the current append offset.
	Tail() int64
}

// PageStore is the asynchronous persistence domain: page-granular
// storage for data pages, with trim and flush.
type PageStore interface {
	PageSize() int
	// ReadPage fetches a page, blocking the calling process. The data
	// is shared with the device and must not be modified.
	ReadPage(p *sim.Proc, lpn int64) ([]byte, error)
	// WritePage stores a page, blocking until acknowledged. The device
	// keeps its own copy: data is the caller's again on return.
	WritePage(p *sim.Proc, lpn int64, data []byte) error
	// WriteSealedPage is WritePage for a page whose buffer its writer
	// does not write again while a reader can reach the page (a B-tree
	// page: btree.Pager's promise; the store reuses its image only once
	// the page is freed and no read that could reach it is in flight).
	// The device may keep data itself as the page's payload and share it
	// with every reader, so data is read-only from the call on for as
	// long as the page is reachable. Only the B-tree's pager calls it; a
	// writer that reuses its buffer any sooner calls WritePage.
	WriteSealedPage(p *sim.Proc, lpn int64, data []byte) error
	// Trim declares a page dead.
	Trim(lpn int64) error
	// Flush blocks the calling process until every write acknowledged
	// before it is durable on the device.
	Flush(p *sim.Proc) error
}
