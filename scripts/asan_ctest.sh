#!/usr/bin/env bash
# ASan job variant: builds the whole tree with -fsanitize=address,undefined
# (CMake option KIMDB_SANITIZE=address) and runs the full ctest suite, so
# heap misuse (use-after-free, overflows, leaks) and undefined behaviour
# anywhere the tests reach -- scan page buffers, the object cache, MVCC
# chains, the WAL, the wire protocol -- fails the job. The crash-recovery
# matrix runs exhaustively, as in the plain build.
#
# Usage: scripts/asan_ctest.sh [build-dir]   (default: build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DKIMDB_SANITIZE=address
cmake --build "$BUILD_DIR" -j "$(nproc)"
# halt_on_error makes UBSan findings fatal like ASan's, so a report can
# never scroll past as a passing test.
(cd "$BUILD_DIR" && \
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --output-on-failure -j "$(nproc)")
