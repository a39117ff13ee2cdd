#!/usr/bin/env bash
# Prints the code-line counts that CHANGES.md and ROADMAP.md quote: for each
# first-party crate (and the facade's src/), then for every file of
# crates/cli/src, crates/store/src, crates/core/src, crates/matching/src,
# crates/net/src, crates/cluster/src and crates/service/src. A code line is a non-blank line
# that is not comment-only, above the file's `#[cfg(test)]` module.
# Then, informational and outside the total, every file of the root
# `tests/` (the tier-1 suite and the modules its binaries share), in the
# same unit, with their own total.
#
# Run from the repository root: `bash scripts/code-lines.sh`.

set -euo pipefail

count() {
  awk 'FNR == 1 { in_tests = 0 }
       /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
       in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
       { n++ }
       END { print n + 0 }' "$@"
}

total=0
for dir in crates/*/src src; do
  mapfile -t files < <(find "$dir" -name '*.rs' | sort)
  n=$(count "${files[@]}")
  printf '%-28s %6d\n' "$dir" "$n"
  total=$((total + n))
done
printf '%-28s %6d\n' "total" "$total"
for dir in crates/cli/src crates/store/src crates/core/src crates/matching/src \
  crates/net/src crates/cluster/src crates/service/src; do
  echo
  for f in "$dir"/*.rs; do
    printf '%-38s %6d\n' "$f" "$(count "$f")"
  done
done
echo
echo "informational: root tests/, not in the total above"
tests_total=0
while IFS= read -r f; do
  n=$(count "$f")
  printf '%-38s %6d\n' "$f" "$n"
  tests_total=$((tests_total + n))
done < <(find tests -name '*.rs' | sort)
printf '%-38s %6d\n' "tests total" "$tests_total"
