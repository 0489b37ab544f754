#!/usr/bin/env bash
# Prove that the working tree computes the same bits as a base commit:
# build examples/real_checksums at <base-ref> and in the working tree,
# run both, and fail on any difference. real_checksums prints one
# FNV-1a checksum of C per Real-mode run (264 runs: every distributed
# and sequential schedule over a sweep of tilings, ragged ones
# included). One run of it takes about 2 minutes on a 4-vCPU host.
#
# Usage: scripts/checksum_parity.sh <base-ref> [scratch-dir]
#
# The base is exported with `git archive` into the scratch directory,
# which also holds both build trees and both outputs. Without a
# scratch-dir argument a fresh temporary directory is used and removed
# on exit. CMAKE_BUILD_PARALLEL_LEVEL bounds the build jobs (default:
# all cores).
set -euo pipefail

BASE=${1:?usage: checksum_parity.sh <base-ref> [scratch-dir]}
ROOT=$(git rev-parse --show-toplevel)
BASE_SHA=$(git -C "$ROOT" rev-parse --verify "$BASE^{commit}")
if [ $# -ge 2 ]; then
  SCRATCH=$2
else
  SCRATCH=$(mktemp -d)
  trap 'rm -rf "$SCRATCH"' EXIT
fi
JOBS=${CMAKE_BUILD_PARALLEL_LEVEL:-$(nproc)}

rm -rf "$SCRATCH/base"
mkdir -p "$SCRATCH/base"
git -C "$ROOT" archive "$BASE_SHA" | tar -x -C "$SCRATCH/base"

# checksums <source-dir> <build-dir> <output-file>
checksums() {
  cmake -S "$1" -B "$2" > "$2.configure.log"
  cmake --build "$2" --target real_checksums --parallel "$JOBS" \
    > "$2.build.log"
  "$2/examples/real_checksums" > "$3"
}

echo "checksum-parity: building and running the base ($BASE_SHA)"
checksums "$SCRATCH/base" "$SCRATCH/build-base" "$SCRATCH/base.txt"
echo "checksum-parity: building and running the working tree"
checksums "$ROOT" "$SCRATCH/build-head" "$SCRATCH/head.txt"

lines=$(wc -l < "$SCRATCH/head.txt")
[ "$lines" -gt 0 ] || { echo "checksum-parity: no output"; exit 1; }
if ! diff -u "$SCRATCH/base.txt" "$SCRATCH/head.txt"; then
  echo "checksum-parity: FAILED, the checksums differ from $BASE_SHA"
  exit 1
fi
echo "checksum-parity: $lines/$lines lines identical to $BASE_SHA"
