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
#      calls .Sync( once (WAL.write, the log writer: commits and
#      checkpoints wait for it, none syncs the log device itself);
#      internal/kvstore calls wal.New( once (build: every builder and
#      System.Reopen open a store's log and pages through it); PageFTL's
#      files in internal/ftl (all but hybridftl.go) call cloneBytes( once
#      (PageFTL.clone: every host write's entry copy takes a recycled
#      buffer before it allocates); and no non-test file under internal/
#      or cmd/ outside internal/sim masks a ring index with a power of
#      two (`& (len(`): a FIFO is a sim.Queue, the one ring that does;
#   5. the one-thread rule: no non-test Go file under internal/ or cmd/
#      imports "sync", and none under internal/ imports "net/http" or
#      starts a goroutine (a `go` statement). The simulator runs one
#      entity at a time (procs are coroutines, not goroutines) and its
#      telemetry leaves a run as files written after it, so a mutex, a
#      listener or a second goroutine is a sign of state shared by
#      accident;
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
syncs=$(count_in internal/wal '\.Sync(')
if [ "$syncs" -ne 1 ]; then
    echo "internal/wal has $syncs .Sync( calls in non-test files, want exactly 1 (WAL.write): every sync of the log goes through the log writer" >&2
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
