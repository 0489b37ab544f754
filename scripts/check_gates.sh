#!/usr/bin/env bash
# Check one CI gate against bench JSON documents, in CI or offline:
#
#   scripts/check_gates.sh GATE FILE.json...
#
# GATE names a filter in scripts/gates.jq. With one FILE the gate reads
# that document; with several it reads the array of them, in the order
# given. Exits 0 when the gate holds. Otherwise prints each document's
# scalars and exits 1 (2 on a usage error). Needs jq.
set -euo pipefail

dir=$(cd "$(dirname "$0")" && pwd)
if [ "$#" -lt 2 ]; then
  echo "usage: $0 GATE FILE.json..." >&2
  exit 2
fi
gate=$1
shift
slurp=()
if [ "$#" -gt 1 ]; then slurp=(--slurp); fi

if jq -e ${slurp[@]+"${slurp[@]}"} -L "$dir" "include \"gates\"; $gate" \
     "$@" > /dev/null; then
  echo "gate $gate: ok"
  exit 0
fi
echo "gate $gate FAILED on: $*"
for f in "$@"; do
  echo "$f:"
  jq '.scalars' "$f" || true
done
exit 1
