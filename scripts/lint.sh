#!/usr/bin/env sh
# lint.sh — the docs-and-code lint gate run by CI (and by hand).
#
#   1. gofmt -l: no unformatted Go files;
#   2. go vet ./...: no vet findings;
#   3. every internal/* package carries a package comment ("// Package
#      <name> ..."), so godoc never renders an undocumented subsystem;
#   4. skeletons that must exist once, counted in non-test files:
#      internal/experiments spells one serve.AdmissionConfig literal
#      (fabricConfig in fabric.go: a second means a fabric run was set
#      up beside the harness); internal/place calls .CopyInto( once
#      (Placement.sync: migrate, repair and crash-resync all reach the
#      copy through it); internal/serve calls .Reopen( once
#      (Fabric.crashReopen, behind Crash and CrashDevice); internal/wal
#      calls .Sync( once (WAL.sync, the pooled log writers': commits and
#      checkpoints wait for them, none syncs the log device itself);
#      internal/kvstore calls wal.New( once (build: every builder and
#      System.Reopen open a store's log and pages through it); PageFTL's
#      files in internal/ftl (all but hybridftl.go) call cloneBytes( once
#      (PageFTL.clone: every host write's entry copy takes a recycled
#      buffer before it allocates); and no non-test file under internal/
#      or cmd/ outside internal/sim masks a ring index with a power of
#      two (`& (len(`): a FIFO is a sim.Queue, the one ring that does;
#      and no non-test file under internal/ but blockdev.go
#      (Stack.AttachScheduler, which wires GC notifications with GC
#      control) and ssd's device.go (Device.SetGCNotifier's own
#      forward) calls .SetGCNotifier(;
#      and only the B-tree pager seals a write: in non-test Go files a
#      request is sealed (`Sealed:`) only in core.StackPages.
#      WriteSealedPage, which only kvstore's pagerAdapter calls; no
#      .Sealed is assigned; .MarkSealed( is called only by blockdev's
#      dispatch and .WriteSealed( only by ssd's Device. A sealed buffer
#      is kept by the device uncopied and is not written again while a
#      reader can reach its page: the store recycles a page image only
#      once the page is freed and no pin (a get's tree descent, a scan,
#      a snapshot) is held. A writer that reuses its buffer without that wait (the
#      block log, the meta page, the bench's device workloads) must not
#      seal it;
#      and no non-test file under internal/btree allocates a byte buffer
#      (`make([]byte`): the tree encodes every page into a buffer from
#      btree.Pager.NewPage, which the store fills from the images of
#      pages it freed, so a page image allocated beside it would never
#      be recycled;
#      and no non-test file under internal/serve or internal/place
#      imports repro/internal/pcm: a fabric shard is always
#      kvstore.BuildShardConservative, and the paper's PCM-log stack is
#      built whole-device only (kvstore.BuildProgressive, E10/E11), so a
#      memory bus in the fabric is a second assembly growing back;
#      and no non-test file under internal/ftl, internal/nand or
#      internal/ssd imports repro/internal/obs: the device model reports
#      to the host through its GCCoord ledger and the peer interface
#      (GC notifications, leases), not by pushing events into the
#      host's health monitor;
#      and only internal/kvstore (Store.Resident, the residency probe
#      place routes reads by) names the page cache's CLOCK-neutral
#      lookup, bufpool.Pool.Peek, in a non-test Go file: a real read
#      goes through Pool.Get and its hit/miss accounting, so the probe
#      never becomes a second read path;
#      and a freed page is trimmed once, when no reader can reach it:
#      in non-test files internal/kvstore calls .Trim( exactly once, in
#      Store.dispose, which retires the checkpoints' limbo when no pin
#      (a get's tree descent, a scan, a snapshot) is held;
#      and internal/kvstore allocates a byte buffer (`make([]byte`) in a
#      non-test file only for the buffers the store keeps for good: a
#      memtable arena's chunk (Store.keep), a page image when no freed
#      one is spare (pagerAdapter.NewPage) and the meta page
#      (writeMeta); a commit record's scratch grows by append and is
#      pooled with the record. Each is recycled, so a byte buffer
#      allocated beside them would be a per-op cost growing back;
#      and a range read says so: in non-test files internal/btree
#      calls .ReadPage( only in Tree.Get, applyTo and minKeyOf, the
#      point reads and rewrites whose pages are worth keeping; the
#      Cursor reads through Pager.ScanPage, which the store maps to
#      the page cache's probation path (bufpool.Pool.Scan), so a scan
#      routed back through ReadPage would push out the hot pages;
#      and the device queue is pulled, never kicked: in non-test files
#      internal/sched schedules an engine event (.Schedule(, .After(,
#      .Go() only in maybeResumeGC, its deferred GC resume, and
#      internal/blockdev names its pump (.pump) only in toDevice and
#      drainCompletions. The scheduler never calls its stack back: a
#      pull comes up short only on empty queues, and every event that
#      queues a request or frees a slot pumps, so a kick, a wake-up
#      timer or a third pump site could only dispatch what those two
#      already do;
#   5. the one-thread rule: no non-test Go file under internal/ or cmd/
#      imports "sync", and none under internal/ imports "net/http",
#      starts a goroutine (a `go` statement) or declares a channel. The
#      simulator runs one entity at a time (procs are coroutines, not
#      goroutines) and its telemetry leaves a run as files written
#      after it, so a mutex, a listener, a second goroutine or a channel
#      is a sign of state shared by accident;
#   6. staticcheck (pinned STATICCHECK_VERSION) when the binary is
#      available — CI installs it; offline checkouts skip with a note
#      rather than fetching modules.
#
# Exits non-zero on the first failing check.
set -eu
cd "$(dirname "$0")/.."

# The staticcheck release CI pins (go install \
# honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION).
STATICCHECK_VERSION=2025.1.1

fail=0

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    fail=1
fi

if ! go vet ./...; then
    fail=1
fi

for dir in internal/*/; do
    pkg=$(basename "$dir")
    if ! grep -q "^// Package $pkg " "$dir"*.go; then
        echo "package comment missing: $dir has no '// Package $pkg ...' doc comment" >&2
        fail=1
    fi
done

# count_in <dir> <pattern>: lines matching pattern in dir's non-test Go files.
count_in() {
    ls "$1"/*.go | grep -v '_test\.go$' | xargs cat | grep -c "$2" || true
}
literals=$(count_in internal/experiments 'serve\.AdmissionConfig{')
if [ "$literals" -ne 1 ]; then
    echo "internal/experiments has $literals serve.AdmissionConfig{ literals in non-test files, want exactly 1 (fabricConfig): build fabric runs through runFabric" >&2
    fail=1
fi

copies=$(count_in internal/place '\.CopyInto(')
if [ "$copies" -ne 1 ]; then
    echo "internal/place has $copies .CopyInto( calls in non-test files, want exactly 1 (Placement.sync): migrate, rebuild and resync replicas through sync, not beside it" >&2
    fail=1
fi
reopens=$(count_in internal/serve '\.Reopen(')
if [ "$reopens" -ne 1 ]; then
    echo "internal/serve has $reopens .Reopen( calls in non-test files, want exactly 1 (Fabric.crashReopen): crash and reopen shards through crashReopen, not beside it" >&2
    fail=1
fi
logs=$(count_in internal/kvstore 'wal\.New(')
if [ "$logs" -ne 1 ]; then
    echo "internal/kvstore has $logs wal.New( calls in non-test files, want exactly 1 (build): assemble stores through build, not beside it" >&2
    fail=1
fi
# HybridFTL never discards a page, so its entry copy has nothing to
# recycle and stays a plain clone.
clones=$(ls internal/ftl/*.go | grep -v -e '_test\.go$' -e '/hybridftl\.go$' | xargs cat |
    grep 'cloneBytes(' | grep -vc '^func cloneBytes(' || true)
if [ "$clones" -ne 1 ]; then
    echo "internal/ftl has $clones cloneBytes( calls outside hybridftl.go, want exactly 1 (PageFTL.clone): copy a host write's payload through clone, which reuses a killed page's buffer first" >&2
    fail=1
fi
rings=$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path 'internal/sim/*' -print0 |
    xargs -0 grep -lE '&[[:space:]]*\(len\(' || true)
if [ -n "$rings" ]; then
    echo "non-test files outside internal/sim index a ring with a power-of-two mask (& (len(); queue on sim.Queue instead of hand-rolling a ring:" >&2
    echo "$rings" >&2
    fail=1
fi
notifiers=$(find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/blockdev/blockdev.go' ! -path 'internal/ssd/device.go' -print0 |
    xargs -0 grep -l '\.SetGCNotifier(' || true)
if [ -n "$notifiers" ]; then
    echo "non-test files under internal/ wire GC notifications by hand (.SetGCNotifier(); blockdev.Stack.AttachScheduler wires them with GC control:" >&2
    echo "$notifiers" >&2
    fail=1
fi
# Each sealing call is allowed once, in the one file and statement named
# by the second grep (file:line:text).
sealers=$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -print0 |
    xargs -0 grep -nE 'Sealed:|\.Sealed[[:space:]]*=|\.WriteSealedPage\(|\.MarkSealed\(|\.WriteSealed\(' |
    grep -vE '^\./internal/core/pages\.go:[0-9]+:.*Data: data, Sealed: true\}|^\./internal/kvstore/kvstore\.go:[0-9]+:.*a\.s\.pages\.WriteSealedPage\(|^\./internal/blockdev/batch\.go:[0-9]+:.*s\.sealer\.MarkSealed\(|^\./internal/ssd/device\.go:[0-9]+:.*d\.sealer\.WriteSealed\(' || true)
if [ -n "$sealers" ]; then
    echo "a write is sealed outside the B-tree pager's path (pagerAdapter.WritePage -> StackPages.WriteSealedPage -> blockdev dispatch -> ssd.Device); a sealed buffer is not written again while a reader can reach its page, which only the store's page images promise, so any other writer that reuses its buffer must write it unsealed:" >&2
    echo "$sealers" >&2
    fail=1
fi
pagebufs=$(find internal/btree -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 grep -HnE 'make\(\[\]byte' || true)
if [ -n "$pagebufs" ]; then
    echo "a non-test file under internal/btree allocates a byte buffer; the tree encodes its pages into buffers from Pager.NewPage, which recycles freed page images:" >&2
    echo "$pagebufs" >&2
    fail=1
fi
buses=$(find internal/serve internal/place -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 grep -n '"repro/internal/pcm"' || true)
if [ -n "$buses" ]; then
    echo "a non-test file under internal/serve or internal/place imports repro/internal/pcm; the fabric builds its shards on the block interface only (kvstore.BuildShardConservative):" >&2
    echo "$buses" >&2
    fail=1
fi
hostobs=$(find internal/ftl internal/nand internal/ssd -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 grep -n '"repro/internal/obs"' || true)
if [ -n "$hostobs" ]; then
    echo "a non-test file under internal/ftl, internal/nand or internal/ssd imports repro/internal/obs; the device reports through its GCCoord ledger and the peer interface, not into the host's monitor:" >&2
    echo "$hostobs" >&2
    fail=1
fi
peeks=$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './internal/kvstore/*' -print0 |
    xargs -0 grep -nE '\.Peek([^[:alnum:]_]|$)' || true)
if [ -n "$peeks" ]; then
    echo "a non-test file outside internal/kvstore names bufpool.Pool.Peek, the residency probe's CLOCK-neutral lookup; read pages through Pool.Get:" >&2
    echo "$peeks" >&2
    fail=1
fi

# callers_in <dir> <ERE>: "file: func: line" for every non-comment line
# of dir's non-test Go files that matches, named by the top-level func it
# sits in.
callers_in() {
    ls "$1"/*.go | grep -v '_test\.go$' | xargs awk -v pat="$2" '
        /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) }
        $0 ~ pat && $0 !~ /^func / && $0 !~ /^[[:space:]]*\/\// { print FILENAME ": " fn ": " $0 }'
}
events=$(callers_in internal/sched '\.(Schedule|After|Go)\(' | grep -v '^[^:]*: maybeResumeGC: ' || true)
if [ -n "$events" ]; then
    echo "internal/sched schedules an engine event outside maybeResumeGC's deferred GC resume; the scheduler is pulled by its stack and never calls it back:" >&2
    echo "$events" >&2
    fail=1
fi
pumps=$(callers_in internal/blockdev '\.pump([^[:alnum:]_]|$)' | grep -vE '^[^:]*: (toDevice|drainCompletions): ' || true)
if [ -n "$pumps" ]; then
    echo "internal/blockdev names its pump outside toDevice and drainCompletions; those two are every event that queues a request or frees a slot:" >&2
    echo "$pumps" >&2
    fail=1
fi
trims=$(callers_in internal/kvstore '\.Trim\(')
ntrims=$(printf '%s' "$trims" | grep -c . || true)
if [ "$ntrims" -ne 1 ] || ! printf '%s\n' "$trims" | grep -q '^[^:]*: dispose: '; then
    echo "internal/kvstore has $ntrims .Trim( calls in non-test files, want exactly 1, in Store.dispose: a freed page is trimmed once, when no pin can still reach it:" >&2
    echo "$trims" >&2
    fail=1
fi
btreereads=$(callers_in internal/btree '\.ReadPage\(' | grep -vE '^[^:]*: (Get|applyTo|minKeyOf): ' || true)
if [ -n "$btreereads" ]; then
    echo "internal/btree reads a page through Pager.ReadPage outside Tree.Get, applyTo and minKeyOf; a range read (the Cursor) reads through Pager.ScanPage, so the page cache takes its pages on probation:" >&2
    echo "$btreereads" >&2
    fail=1
fi
bytebufs=$(callers_in internal/kvstore 'make\(\[\]byte' | grep -vE '^[^:]*: (keep|NewPage|writeMeta): ' || true)
if [ -n "$bytebufs" ]; then
    echo "internal/kvstore allocates a byte buffer outside the ones the store keeps for good (arena chunks in keep, page images in NewPage, the meta page in writeMeta); copy into one of those or into a commit record's pooled scratch:" >&2
    echo "$bytebufs" >&2
    fail=1
fi

syncs=$(count_in internal/wal '\.Sync(')
if [ "$syncs" -ne 1 ]; then
    echo "internal/wal has $syncs .Sync( calls in non-test files, want exactly 1 (WAL.sync): every sync of the log goes through the log writers" >&2
    fail=1
fi

# The import may sit alone or inside an import block.
syncers=$(find internal cmd -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 grep -lE '^[[:space:]]*(import[[:space:]]+)?"sync"$' || true)
if [ -n "$syncers" ]; then
    echo "non-test files under internal/ or cmd/ import \"sync\" (the simulation is single-threaded; hand cross-goroutine work to it over a channel):" >&2
    echo "$syncers" >&2
    fail=1
fi

threads=$(find internal -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 grep -lE '"net/http|^[[:space:]]*go[[:space:]]+[[:alnum:]_(]' || true)
if [ -n "$threads" ]; then
    echo "non-test files under internal/ import \"net/http\" or start a goroutine (the simulation is single-threaded; its telemetry leaves a run as -obs/-series files):" >&2
    echo "$threads" >&2
    fail=1
fi
chans=$(find internal -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 grep -lE '(^|[^[:alnum:]_.])chan([[:space:]]|<-|\[|$)|<-[[:space:]]*chan([^[:alnum:]_]|$)' || true)
if [ -n "$chans" ]; then
    echo "non-test files under internal/ declare a channel (the simulation runs one proc at a time; hand results between procs in plain variables):" >&2
    echo "$chans" >&2
    fail=1
fi

if command -v staticcheck >/dev/null 2>&1; then
    if ! staticcheck ./...; then
        fail=1
    fi
else
    echo "lint: staticcheck not installed; skipping (CI pins $STATICCHECK_VERSION)" >&2
fi

if [ "$fail" -ne 0 ]; then
    echo "lint: FAILED" >&2
    exit 1
fi
echo "lint: OK"
