#!/usr/bin/env bash
# Doc-lint: the docs must keep up with the code. One check family per run:
#
#   obs       every metric name registered in the source tree is documented
#             in docs/OBSERVABILITY.md (ctest `obs_doc_lint`, label `obs`).
#             Registration sites pass the name as a string literal
#             (`RegisterCounter("pv.queue.pushes", ...)`), which is what
#             makes this lint — and grep-ability in general — work.
#   vnuma     every piece of the vNUMA interface that exists in code —
#             hypercall surface names, VnumaInfo / VnumaMemrange table
#             fields, ABI constants, the CLI modes, and every vnuma metric —
#             is documented in docs/VNUMA.md (ctest `vnuma_doc_lint`, label
#             `vnuma`).
#   sections  every "MODEL.md §N" (or "MODEL.md#N-anchor" link) in the
#             repo's prose points at a section heading that exists in
#             docs/MODEL.md — the rot where a section is renumbered or a
#             citation lands before the section is written. Bare "§N"
#             without MODEL.md context cites the *paper* and is deliberately
#             not checked (ctest `doc_sections_lint`).
#
# Usage: tools/check_docs.sh <repo-root> <obs|vnuma|sections>
set -euo pipefail

usage="usage: tools/check_docs.sh <repo-root> <obs|vnuma|sections>"
ROOT="${1:?$usage}"
KIND="${2:?$usage}"

# kind -> checked doc, "nothing to check" message, summary nouns.
case "$KIND" in
  obs)
    DOC="$ROOT/docs/OBSERVABILITY.md"
    NONE="found no metric registrations under src/ (lint is miswired?)"
    MISSING="metric names undocumented"
    OK="registered metric names documented in docs/OBSERVABILITY.md" ;;
  vnuma)
    DOC="$ROOT/docs/VNUMA.md"
    NONE="found no vNUMA surface to check (lint is miswired?)"
    MISSING="vNUMA interface names undocumented"
    OK="vNUMA interface names documented in docs/VNUMA.md" ;;
  sections)
    DOC="$ROOT/docs/MODEL.md"
    NONE="found no MODEL.md section citations anywhere (lint is miswired?)"
    MISSING="MODEL.md section citations dangle"
    OK="MODEL.md section citations resolve" ;;
  *)
    echo "$usage" >&2
    exit 2 ;;
esac

if [[ ! -f "$DOC" ]]; then
  echo "FAIL: $DOC does not exist"
  exit 1
fi

missing=0
total=0

# expect <message> <command...>: one check; prints "FAIL: <message>" when
# the command fails.
expect() {
  local message="$1"
  shift
  total=$((total + 1))
  if ! "$@"; then
    echo "FAIL: $message"
    missing=$((missing + 1))
  fi
}

# Every metric name registered under src/, bench/ and tools/. Registrations
# are often line-wrapped by clang-format (`RegisterCounter(\n    "name",
# ...`), so each file is collapsed to one line before matching.
registered_metrics() {
  find "$ROOT/src" "$ROOT/bench" "$ROOT/tools" \
    \( -name '*.cc' -o -name '*.h' \) -print0 2>/dev/null |
    xargs -0 cat | tr '\n' ' ' |
    grep -oE 'Register(Counter|Gauge|Histogram)\( *"[^"]+"' |
    sed -E 's/.*"([^"]+)"/\1/' | sort -u
}

check_obs() {
  local name
  while IFS= read -r name; do
    expect "metric '$name' is registered in the source but not documented in docs/OBSERVABILITY.md" \
      grep -qF "\`$name\`" "$DOC"
  done < <(registered_metrics)
}

# require <name> <where-it-came-from>: the exact token must appear somewhere
# in the vNUMA spec (word-boundary match, so `generation` is not satisfied
# by `regeneration`).
require() {
  expect "'$1' ($2) is not documented in docs/VNUMA.md" \
    grep -qE -e "(^|[^A-Za-z0-9_])$1([^A-Za-z0-9_]|$)" "$DOC"
}

check_vnuma() {
  local name mode
  # Hypercall surface: every Vnuma-named method, status, and config knob of
  # the hypervisor header.
  while IFS= read -r name; do
    require "$name" "src/hv/hypervisor.h"
  done < <(grep -oE 'Hypercall[A-Za-z]*Vnuma[A-Za-z]*|kVnuma[A-Za-z]+|NoteVcpuMoved' \
             "$ROOT/src/hv/hypervisor.h" | sort -u)

  # Table layout: every field of the VnumaMemrange and VnumaInfo structs.
  while IFS= read -r name; do
    require "$name" "src/hv/vnuma.h struct field"
  done < <(awk '/^struct (VnumaMemrange|VnumaInfo) \{/,/^\};/' "$ROOT/src/hv/vnuma.h" |
           sed -E 's#//.*##' |
           grep -vE 'operator|struct' |
           grep -oE '[a-z_][a-z_0-9]*( = [^;]*)?;' |
           sed -E 's/( = [^;]*)?;//' | sort -u)

  # ABI constants.
  while IFS= read -r name; do
    require "$name" "src/hv/vnuma.h constant"
  done < <(grep -oE 'kVnuma[A-Za-z]+' "$ROOT/src/hv/vnuma.h" | sort -u)

  # CLI: the flag and each mode it parses.
  if grep -q 'GetString("vnuma"' "$ROOT/tools/xnuma_cli.cc"; then
    require "--vnuma" "tools/xnuma_cli.cc flag"
    while IFS= read -r mode; do
      require "$mode" "CLI vnuma mode"
    done < <(grep -oE 'mode == "[a-z]+"' "$ROOT/tools/xnuma_cli.cc" |
             sed -E 's/mode == "([a-z]+)"/\1/' | sort -u)
  fi

  # Metrics: every registered instrument with vnuma in its name.
  while IFS= read -r name; do
    require "$name" "metric registration"
  done < <(registered_metrics | grep vnuma)
}

check_sections() {
  # Existing sections: '## N.' headings.
  local sections
  sections=$(grep -oE '^## [0-9]+' "$DOC" | awk '{print $2}' | sort -un)
  if [[ -z "$sections" ]]; then
    echo "FAIL: docs/MODEL.md has no numbered '## N.' sections (lint is miswired?)"
    exit 1
  fi

  local f n cites
  for f in "$ROOT"/README.md "$ROOT"/CHANGES.md "$ROOT"/ROADMAP.md \
           "$ROOT"/EXPERIMENTS.md "$ROOT"/docs/*.md; do
    [[ -f "$f" ]] || continue
    # Two citation shapes: "MODEL.md §8" (optionally "§8/§9/§10") and the
    # markdown anchor "MODEL.md#8-observability". Each grep may match
    # nothing (exit 1); that must not trip set -e/pipefail, hence `|| true`.
    cites=$( { grep -oE 'MODEL\.md §[0-9]+(/§[0-9]+)*' "$f" |
                 grep -oE '§[0-9]+' | tr -d '§' || true;
               grep -oE 'MODEL\.md#[0-9]+' "$f" | grep -oE '[0-9]+' || true; } |
             sort -un)
    [[ -n "$cites" ]] || continue
    while IFS= read -r n; do
      expect "${f#"$ROOT"/} cites MODEL.md §$n but docs/MODEL.md has no '## $n.' section" \
        grep -qx "$n" <<< "$sections"
    done <<< "$cites"
  done
}

"check_$KIND"

if [[ "$total" -eq 0 ]]; then
  echo "FAIL: $NONE"
  exit 1
fi
if [[ "$missing" -gt 0 ]]; then
  echo "FAIL: $missing of $total $MISSING"
  exit 1
fi
echo "OK: all $total $OK"
