#!/usr/bin/env bash
# Whole-paper behaviour oracle: every figure/table binary (and every extra_*
# binary whose stdout carries no host timings) prints deterministic numbers,
# so the SHA-256 of its stdout pins every number it reproduces. This reruns
# each binary named in tests/golden/paper_digests.sha256 through the
# parallel runner (--jobs N) and compares digests. Runs as ctest
# `paper_digests` (label `paper`).
#
# An intentional behaviour change regenerates the manifest with --update in
# the same commit, with a CHANGES.md note saying why the numbers moved.
#
# Usage: tools/check_paper_digests.sh <bench-bin-dir> [--jobs N] [--update]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MANIFEST="$ROOT/tests/golden/paper_digests.sha256"

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <bench-bin-dir> [--jobs N] [--update]" >&2
  exit 2
fi
BIN="$1"
shift
JOBS=4
UPDATE=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) JOBS="$2"; shift 2 ;;
    --update) UPDATE=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

# Prints the SHA-256 of one binary's stdout; fails if the binary does.
digest() {
  local out
  out=$("$BIN/$1" --jobs "$JOBS" < /dev/null | sha256sum) || return 1
  echo "${out%% *}"
}

if [[ "$UPDATE" -eq 1 ]]; then
  # extra_churn prints wall-clock latencies, so it has no stable digest.
  tmp="$(mktemp)"
  trap 'rm -f "$tmp"' EXIT
  for path in "$BIN"/fig[0-9]* "$BIN"/table[0-9]* "$BIN"/extra_*; do
    name="$(basename "$path")"
    [[ -x "$path" && "$name" != extra_churn ]] || continue
    sum="$(digest "$name")"
    echo "$sum  $name" >> "$tmp"
  done
  mv "$tmp" "$MANIFEST"
  echo "OK: wrote $(wc -l < "$MANIFEST") digests to $MANIFEST"
  exit 0
fi

if [[ ! -f "$MANIFEST" ]]; then
  echo "FAIL: $MANIFEST does not exist"
  exit 1
fi

bad=0
total=0
while read -r want name; do
  total=$((total + 1))
  if [[ ! -x "$BIN/$name" ]]; then
    echo "FAIL: $name is in the manifest but not built under $BIN"
    bad=$((bad + 1))
    continue
  fi
  if ! got="$(digest "$name")"; then
    echo "FAIL: $name exited with an error (--jobs $JOBS)"
    bad=$((bad + 1))
    continue
  fi
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: $name stdout digest $got != manifest $want (--jobs $JOBS)"
    bad=$((bad + 1))
  fi
done < "$MANIFEST"

if [[ "$bad" -gt 0 ]]; then
  echo "FAIL: $bad of $total paper binaries changed their output"
  exit 1
fi
echo "OK: all $total paper binaries match their digests at --jobs $JOBS"
