#!/usr/bin/env bash
# Verifies that every relative markdown link in the operator-facing docs
# resolves to a real file (or directory) in the repository. Absolute
# URLs, mailto links, and in-page anchors are skipped; a `path#anchor`
# link is checked for the path half only. Exits non-zero listing every
# broken link, so CI fails loudly instead of shipping dead references.
# It also checks that every test a DESIGN.md invariant list names — written
# `fn name` — exists as a function under tests/, crates/*/tests or a
# #[cfg(test)] module of the sources, and that every CHANGES.md entry from
# PR 49 on (its `- **PR N` line and the indented lines under it) is at most
# 15 lines, none wider than 120 columns; older entries are exempt. And it
# checks that every `Type::member` README.md, DESIGN.md and OPERATIONS.md
# name is a `fn` or a field in a first-party file that defines `Type` or
# implements it; a type no such file defines (a dependency's) is skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

DOCS=(README.md DESIGN.md OPERATIONS.md EXPERIMENTS.md CONTRIBUTING.md)
fail=0
for doc in "${DOCS[@]}"; do
  if [ ! -f "$doc" ]; then
    echo "missing doc: $doc"
    fail=1
    continue
  fi
  # Markdown links: [text](target). `grep` never fails the loop — a doc
  # with no relative links is fine.
  while IFS= read -r target; do
    base=${target%%#*}
    [ -z "$base" ] && continue
    if [ ! -e "$base" ]; then
      echo "$doc: broken relative link -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//' |
    grep -vE '^(https?:|mailto:|#)' || true)
done
test_fns() {
  grep -rhoE 'fn [a-z_0-9]+' tests crates/*/tests
  find src crates -path '*/src/*' -name '*.rs' -exec awk \
    'FNR == 1 { t = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } t' {} + |
    grep -oE 'fn [a-z_0-9]+'
}
known=$(test_fns | sort -u)
named=$(grep -oE '`fn [a-z_0-9]+`' DESIGN.md | tr -d '`' | sort -u)
while IFS= read -r f; do
  [ -z "$f" ] && continue
  if ! grep -qxF "$f" <<<"$known"; then
    echo "DESIGN.md: an invariant names a test that does not exist: $f"
    fail=1
  fi
done <<<"$named"
mapfile -t sources < <(find src crates -path '*/src/*' -name '*.rs' | sort)
paths=0
for doc in README.md DESIGN.md OPERATIONS.md; do
  while read -r ty member; do
    defs=$(grep -lE "^\s*(pub(\([a-z]+\))? )?(struct|enum|trait|type) $ty\b|^impl(<[^>]*>)? $ty\b" \
      "${sources[@]}" || true)
    [ -z "$defs" ] && continue
    paths=$((paths + 1))
    # shellcheck disable=SC2086 # one argument per defining file
    if ! grep -qE "\bfn $member\b|^\s*(pub(\([a-z]+\))? )?$member:" $defs; then
      echo "$doc: \`$ty::$member\` names no fn or field where $ty is defined or implemented"
      fail=1
    fi
  done < <(grep -oE '`[A-Z][A-Za-z0-9_]*::[a-z_][a-z0-9_]*(\([^`]*\))?`' "$doc" |
    sed -E 's/^`([A-Za-z0-9_]+)::([a-z0-9_]+).*/\1 \2/' | sort -u)
done
# Columns are characters: the entries are UTF-8.
check_changes() (
  export LC_ALL=C.UTF-8
  local head='^- \*\*PR ([0-9]+)' pr=0 lines=0 n=0 bad=0 line
  while IFS= read -r line || [ -n "$line" ]; do
    n=$((n + 1))
    if [[ $line =~ $head ]]; then
      pr=${BASH_REMATCH[1]}
      lines=0
    elif [[ ! $line =~ ^[[:space:]] ]]; then
      pr=0
    fi
    [ "$pr" -ge 49 ] || continue
    lines=$((lines + 1))
    if [ "$lines" -eq 16 ]; then
      echo "CHANGES.md:$n: the PR $pr entry is longer than 15 lines"
      bad=1
    fi
    if [ "${#line}" -gt 120 ]; then
      echo "CHANGES.md:$n: a PR $pr entry line is ${#line} columns, over 120"
      bad=1
    fi
  done <CHANGES.md
  exit "$bad"
)
check_changes || fail=1
if [ "$fail" -eq 0 ]; then
  echo "doc links OK: ${DOCS[*]}; $(wc -l <<<"$named") named tests exist;" \
    "$paths \`Type::member\` paths resolve"
fi
exit "$fail"
