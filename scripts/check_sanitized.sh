#!/usr/bin/env bash
# Build and run the full test suite under ASan + UBSan (or any sanitizer
# combo given as the first argument) in a dedicated build tree.
#
#   scripts/check_sanitized.sh                    # address,undefined
#   scripts/check_sanitized.sh thread build-tsan  # TSan in its own tree
#   scripts/check_sanitized.sh address build-a    # custom build dir
#
# Extra arguments after the build dir go to ctest (e.g. -L tier1).
set -euo pipefail

SANITIZERS="${1:-address,undefined}"
BUILD_DIR="${2:-build-sanitize}"
shift $(( $# < 2 ? $# : 2 ))
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$REPO_ROOT/$BUILD_DIR" -S "$REPO_ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRIV_SANITIZE="$SANITIZERS"
cmake --build "$REPO_ROOT/$BUILD_DIR" -j "$(nproc)"

# abort_on_error makes failures fatal so ctest reports them; the
# suppressions-free defaults keep the run honest.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="abort_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
ctest --test-dir "$REPO_ROOT/$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"
