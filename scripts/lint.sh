#!/usr/bin/env sh
# lint.sh — the docs-and-code lint gate run by CI (and by hand).
#
#   1. gofmt -l: no unformatted Go files;
#   2. go vet ./...: no vet findings;
#   3. every internal/* package carries a package comment ("// Package
#      <name> ..."), so godoc never renders an undocumented subsystem;
#   4. internal/experiments spells the fabric's admission config out
#      once (fabricConfig in fabric.go): a second serve.AdmissionConfig
#      literal means a fabric run was set up beside the harness;
#   5. staticcheck (pinned STATICCHECK_VERSION) when the binary is
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

literals=$(ls internal/experiments/*.go | grep -v '_test\.go$' | xargs cat | grep -c 'serve\.AdmissionConfig{' || true)
if [ "$literals" -ne 1 ]; then
    echo "internal/experiments has $literals serve.AdmissionConfig{ literals in non-test files, want exactly 1 (fabricConfig): build fabric runs through runFabric" >&2
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
