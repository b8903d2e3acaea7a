#!/bin/sh
# check.sh — the full local gate: formatting, vet, build, and the test
# suite under the race detector. CI and pre-commit both run this; a
# clean exit is the bar for merging.
#
# Usage: scripts/check.sh [-short]
#   -short   passes -short to go test (skips the heavier integration
#            cases; the race pass still covers the parallel search)
set -eu

cd "$(dirname "$0")/.."

short=""
if [ "${1:-}" = "-short" ]; then
    short="-short"
fi

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== atomic-write gate"
# Checkpoint and result artifacts must be written through
# internal/atomicio (temp file + fsync + rename) so a crash mid-write
# never destroys the previous good generation. A bare os.Create in
# production code is the tell-tale of a non-atomic writer; tests and
# the atomicio package itself are exempt.
bad=$(grep -rn "os\.Create(" --include="*.go" \
        --exclude="*_test.go" \
        cmd internal examples *.go 2>/dev/null \
      | grep -v "^internal/atomicio/" || true)
if [ -n "$bad" ]; then
    echo "non-atomic writes found (use internal/atomicio instead of os.Create):" >&2
    echo "$bad" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== perfbench vet"
# perfbench is a nested module, so the root go vet skips it; vet it on
# its own so an API change that breaks the benchmark build fails here.
(cd perfbench && go vet ./...)

echo "== go build"
go build ./...

echo "== go test -race"
go test -race $short ./...

echo "== telemetry smoke"
scripts/telemetry_smoke.sh

echo "== placed smoke"
scripts/placed_smoke.sh

echo "== portfolio smoke"
scripts/portfolio_smoke.sh

echo "== fleet smoke"
scripts/fleet_smoke.sh

echo "== eco smoke"
scripts/eco_smoke.sh

echo "== lefdef smoke"
scripts/lefdef_smoke.sh

echo "OK"
