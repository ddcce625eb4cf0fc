#!/usr/bin/env bash
# pcube-lint driver: architecture-aware static checks (DESIGN.md §16).
#
# The self-contained pcube_lint_scan binary (no LLVM dependency; builds with
# the same toolchain as the engine) enforces the four rules lexically over
# the git-tracked C++ sources; the fixture corpus under tests/lint_fixtures/
# pins its behavior.
#
# An optional `clang --analyze` sweep runs after the scanner when clang is
# installed; it is additive (deeper path-sensitive checks), never required.
#
# Usage: scripts/lint.sh [build-dir]   (default: build)
# Exit: 0 clean, 1 findings, 2 usage/environment error.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

# The scanner is part of the default build; make sure it exists.
if [ ! -x "$BUILD_DIR/tools/pcube_lint/pcube_lint_scan" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target pcube_lint_scan
fi
SCAN="$BUILD_DIR/tools/pcube_lint/pcube_lint_scan"

# Everything the engine compiles plus the tests: the mutation-entry
# allowlist and the pragma escapes are how legitimate sites opt out, not
# path exclusions. Two directories ARE excluded: tests/lint_fixtures/ is
# the seeded-violation corpus (lint_fixture_test runs the scanner over it
# deliberately; scanning it here would fail every clean tree), and
# tools/pcube_lint/ is the lint tool itself (its diagnostic strings and
# fixture literals mention every forbidden name). git pathspecs match
# recursively, so the exclusions must be explicit.
mapfile -t files < <(git ls-files 'src/*.cc' 'src/*.h' \
                     'tools/*.cpp' 'bench/*.cc' 'bench/*.h' \
                     'tests/*.cc' 'tests/*.h' \
                     ':!tests/lint_fixtures' ':!tools/pcube_lint')

"$SCAN" "${files[@]}"

# Optional deeper sweep: clang's path-sensitive static analyzer over the
# non-test, non-bench translation units (src/ includes only — bench/ and
# tools/ pull in google-benchmark/CLI headers that need the full compile
# database). Additive only — absence is not a failure.
if command -v clang >/dev/null 2>&1; then
  echo "lint.sh: clang --analyze sweep"
  mapfile -t tu_files < <(git ls-files 'src/*.cc')
  fail=0
  for tu in "${tu_files[@]}"; do
    # clang --analyze exits nonzero only on compile errors; analyzer
    # findings still exit 0, so scan the output for warning lines.
    if ! out="$(clang --analyze --analyzer-output text -std=c++20 -Isrc \
                "$tu" 2>&1)" || grep -q 'warning:' <<<"$out"; then
      printf '%s\n' "$out" >&2
      fail=1
    fi
  done
  if [ "$fail" -ne 0 ]; then
    echo "lint.sh: clang --analyze reported findings" >&2
    exit 1
  fi
  echo "lint.sh: clang --analyze clean over ${#tu_files[@]} translation units"
else
  echo "lint.sh: clang not installed — analyzer sweep SKIPPED (advisory only)"
fi
