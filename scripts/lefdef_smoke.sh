#!/bin/sh
# lefdef_smoke.sh — end-to-end smoke test of the real-design ingestion
# path (DESIGN.md §15): LEF/DEF in, constrained placement, DEF out,
# independent re-read.
#
#   1. mctsplace places the lefdef package's test design (small.lef /
#      small.def) under halo, channel, fence and track-snap constraints
#      at a tiny budget and writes the result with -defout; the CLI
#      prints the written DEF's HPWL bit pattern by re-parsing its own
#      output,
#   2. defcheck — a separate binary sharing only the parser — re-reads
#      the placed DEF under the same constraint knobs; its HPWL bit
#      pattern must match the placer's exactly (bit-identical
#      round-trip) and its constraint audit must be clean (it exits
#      nonzero otherwise),
#   3. the synthesize path gets the same treatment: a synthetic bench
#      placed with -defout emits a DEF plus companion LEF from nothing,
#      and defcheck re-reads that pair bit-identically too; with no
#      constraint knobs its audit (bare macro overlap, region
#      containment) must print and be clean.
#
# Usage: scripts/lefdef_smoke.sh
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir/mctsplace" ./cmd/mctsplace
go build -o "$workdir/defcheck" ./cmd/defcheck

lef=internal/lefdef/testdata/small.lef
def=internal/lefdef/testdata/small.def
knobs='-halo 1 -channel 2 -fence 2,2,62,98 -snap'
tiny='-seed 2 -zeta 8 -episodes 4 -gamma 2 -workers 1 -channels 4 -resblocks 1'

echo "== constrained LEF/DEF place with DEF out"
# shellcheck disable=SC2086
"$workdir/mctsplace" -lef "$lef" -def "$def" $knobs $tiny \
    -defout "$workdir/placed.def" >"$workdir/place.out" 2>/dev/null
[ -f "$workdir/placed.def" ] || { echo "lefdef_smoke: placed.def not written" >&2; exit 1; }

bits() { # output-file → "def hpwl" bit pattern
    grep "^def hpwl:" "$1" | grep -o "bits [0-9a-f]*" | head -n 1
}

place_bits=$(bits "$workdir/place.out")
[ -n "$place_bits" ] || { echo "lefdef_smoke: placer printed no DEF hpwl" >&2; cat "$workdir/place.out" >&2; exit 1; }

echo "== independent re-read: bit-identical HPWL, zero violations"
# defcheck exits nonzero on any halo/channel/fence/snap violation.
# shellcheck disable=SC2086
"$workdir/defcheck" -lef "$lef" -def "$workdir/placed.def" $knobs \
    >"$workdir/check.out" || { echo "lefdef_smoke: defcheck rejected the placed DEF" >&2; cat "$workdir/check.out" >&2; exit 1; }
check_bits=$(bits "$workdir/check.out")
[ "$place_bits" = "$check_bits" ] \
    || { echo "lefdef_smoke: HPWL diverged: placer '$place_bits' vs re-read '$check_bits'" >&2; exit 1; }
echo "   $place_bits (placer == re-read)"

echo "== synthesize path: bench -> DEF+LEF out -> re-read"
# shellcheck disable=SC2086
"$workdir/mctsplace" -bench cir1 -scale 0.003 $tiny \
    -defout "$workdir/synth.def" >"$workdir/synth.out" 2>/dev/null
[ -f "$workdir/synth.lef" ] || { echo "lefdef_smoke: companion LEF not synthesized" >&2; exit 1; }
synth_bits=$(bits "$workdir/synth.out")
"$workdir/defcheck" -lef "$workdir/synth.lef" -def "$workdir/synth.def" \
    >"$workdir/synthcheck.out" || { echo "lefdef_smoke: defcheck rejected the synthesized DEF" >&2; exit 1; }
grep -q "^constraints: *halo overlaps 0 (area 0), fence violations 0, snap violations 0$" "$workdir/synthcheck.out" \
    || { echo "lefdef_smoke: unconstrained audit missing or not clean" >&2; cat "$workdir/synthcheck.out" >&2; exit 1; }
synthcheck_bits=$(bits "$workdir/synthcheck.out")
[ -n "$synth_bits" ] && [ "$synth_bits" = "$synthcheck_bits" ] \
    || { echo "lefdef_smoke: synthesized HPWL diverged: '$synth_bits' vs '$synthcheck_bits'" >&2; exit 1; }
echo "   $synth_bits (placer == re-read)"

echo "lefdef_smoke: OK"
