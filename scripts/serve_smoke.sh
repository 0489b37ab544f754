#!/usr/bin/env bash
# Smoke-drive the persistent transform service end to end over its Unix
# socket: start fourindex-serve, walk requests through each admission
# verdict (admitted / queued / rejected), prove the schedule cache
# replays a repeated request bit-identically, and shut the server down
# so it emits its serve.* bench JSON for the CI gate.
#
# Usage: scripts/serve_smoke.sh <path-to-fourindex-serve> [json-dir]
set -euo pipefail

BIN=${1:?usage: serve_smoke.sh <fourindex-serve binary> [json-dir]}
JSON_DIR=${2:-serve-json}
SOCK=${FOURINDEX_SERVE_SOCKET:-/tmp/fourindex-serve-smoke.$$.sock}

mkdir -p "$JSON_DIR"
rm -f "$SOCK"

FOURINDEX_BENCH_JSON_DIR="$JSON_DIR" "$BIN" --socket "$SOCK" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$SOCK"' EXIT

for _ in $(seq 50); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "server never bound $SOCK"; exit 1; }

ask() { "$BIN" --socket "$SOCK" --request "$1"; }
expect() { # expect <outcome> <response-json>
  local got
  got=$(jq -r '.outcome' <<<"$2")
  [ "$got" = "$1" ] || { echo "expected outcome '$1', got: $2"; exit 1; }
}

# release <ticket>: free a hold, then every hold its release drained
# from the queue.
release() {
  local rsp t
  rsp=$(ask "{\"verb\":\"release\",\"ticket\":$1}")
  jq -e '.outcome == "released" and all(.ran[]; .outcome != "error")' \
    <<<"$rsp" > /dev/null || { echo "release $1 failed: $rsp"; exit 1; }
  for t in $(jq -r '.ran[] | select(.outcome == "admitted") | .ticket' \
               <<<"$rsp"); do
    release "$t"
  done
}

# 1. Admitted: Hyperpolar fits 4 idle SystemA nodes. plan_only holds
#    the fused-inner chain's aggregate peak (7.92 MB of 23.4 MB) so
#    later requests see less memory.
HOLD='{"molecule":"Hyperpolar","nodes":4,"plan_only":true}'
R1=$(ask "$HOLD")
expect admitted "$R1"
TICKETS=("$(jq -r '.ticket' <<<"$R1")")

# 2. Queued: keep holding until a hold no longer fits next to the
#    others but would fit the idle machine — the third one.
QUEUED=
for _ in $(seq 8); do
  R=$(ask "$HOLD")
  if [ "$(jq -r '.outcome' <<<"$R")" = queued ]; then QUEUED=1; break; fi
  expect admitted "$R"
  TICKETS+=("$(jq -r '.ticket' <<<"$R")")
done
[ -n "$QUEUED" ] || { echo "never saw a queued admission"; exit 1; }
[ "${#TICKETS[@]}" -eq 2 ] \
  || { echo "expected the third hold to queue, got ${#TICKETS[@]} holds"; exit 1; }

# 3. Rejected: every member's C stays resident for the whole run, and
#    n = 1024's C alone exceeds an idle single SystemA node — rejected
#    before any tile grid is walked.
R=$(ask '{"molecule":"custom","n":1024,"nodes":1,"plan_only":true}')
expect rejected "$R"
jq -e '.error | startswith("exceeds the idle machine: every member'"'"'s C alone holds")' \
  <<<"$R" > /dev/null || { echo "n = 1024 was not rejected by the C guard: $R"; exit 1; }

# Release every hold, and the queued one the first release drains, so
# the cache test below sees an idle machine.
for t in "${TICKETS[@]}"; do release "$t"; done

# 4. Schedule cache: a repeated Real-mode request must hit the cache
#    and reproduce the cold run's checksum bit for bit.
REQ='{"molecule":"custom","n":12,"irrep_order":2,"nodes":1,"real":true}'
COLD=$(ask "$REQ")
WARM=$(ask "$REQ")
expect admitted "$COLD"
expect admitted "$WARM"
jq -e '.cache_hit == true' <<<"$WARM" > /dev/null \
  || { echo "repeated request missed the schedule cache: $WARM"; exit 1; }
CK_COLD=$(jq -r '.result_checksum' <<<"$COLD")
CK_WARM=$(jq -r '.result_checksum' <<<"$WARM")
[ "$CK_COLD" = "$CK_WARM" ] && [ "$CK_COLD" != 0 ] \
  || { echo "cache replay is not bit-identical: $CK_COLD vs $CK_WARM"; exit 1; }

# 5. The stats verb must expose the serve.* registry as JSON.
ask '{"verb":"stats"}' | jq -e '
    .["serve.admitted"].sum >= 1
    and .["serve.queued"].sum >= 1
    and .["serve.rejected"].sum >= 1
    and .["serve.cache_hits"].sum >= 1
  ' > /dev/null || { echo "stats verb gate failed"; exit 1; }

# 6. Shutdown: the server acknowledges, exits cleanly, and writes its
#    bench JSON.
ask '{"verb":"shutdown"}' | jq -e '.outcome == "shutdown"' > /dev/null
wait "$SERVER_PID"
trap - EXIT
rm -f "$SOCK"

DOC="$JSON_DIR/fourindex_serve.bench.json"
[ -f "$DOC" ] || { echo "server wrote no bench JSON at $DOC"; exit 1; }
jq -e '
    .schema == "fourindex.bench/1"
    and ([.scalars[] | type == "number"] | all)
    and .metrics.serve["serve.admitted"].sum >= 1
    and .metrics.serve["serve.queued"].sum >= 1
    and .metrics.serve["serve.rejected"].sum >= 1
    and .metrics.serve["serve.cache_hits"].sum >= 1
    and .metrics.serve["serve.des_skips"].sum >= 1
    and .metrics.serve["serve.errors"].sum == 0
  ' "$DOC" > /dev/null \
  || { echo "serve bench JSON gate failed:"; jq . "$DOC"; exit 1; }

echo "serve smoke passed:"
jq '.metrics.serve | with_entries(.value |= .sum)' "$DOC"
