#!/usr/bin/env bash
# shard-smoke: end-to-end exercise of the distributed sharding stack. Proves
# the tentpole invariant on real binaries: a sharded run's stdout is
# byte-identical to the unsharded crbench run — through `crshard` over its
# local worker, through `crshard` over two live crserve daemons, and through
# a run that loses one daemon midway and recovers by re-dispatching its
# shards to the survivor.
# Shared by `make shard-smoke` and CI's shard-smoke job.
set -euo pipefail

ADDR_A="${CRSHARD_ADDR_A:-127.0.0.1:8361}"
ADDR_B="${CRSHARD_ADDR_B:-127.0.0.1:8362}"
OUT="${CRSHARD_OUT:-bin}"
mkdir -p "$OUT"

go build -o "$OUT/crbench" ./cmd/crbench
go build -o "$OUT/crshard" ./cmd/crshard
go build -o "$OUT/crserve" ./cmd/crserve
"$OUT/crshard" -h >/dev/null 2>&1 # help exits zero

SPEC_ARGS=(-ids E1,E12 -quick -trials 2 -seed 7)

# 1. crshard -shards N over its local worker is byte-identical to plain
# crbench.
"$OUT/crbench" "${SPEC_ARGS[@]}" -o "$OUT/shard-unsharded.txt" 2>/dev/null
"$OUT/crshard" "${SPEC_ARGS[@]}" -shards 3 -o "$OUT/shard-local3.txt" 2>/dev/null
cmp "$OUT/shard-unsharded.txt" "$OUT/shard-local3.txt"

# 2. crshard over two crserve daemons is byte-identical too.
"$OUT/crserve" -addr "$ADDR_A" -workers 2 2> "$OUT/crserve-a.log" &
PID_A=$!
"$OUT/crserve" -addr "$ADDR_B" -workers 2 2> "$OUT/crserve-b.log" &
PID_B=$!
trap 'kill -9 "$PID_A" "$PID_B" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  if curl -sf "http://$ADDR_A/healthz" >/dev/null &&
     curl -sf "http://$ADDR_B/healthz" >/dev/null; then break; fi
  sleep 0.1
done

"$OUT/crshard" "${SPEC_ARGS[@]}" -shards 4 \
  -endpoints "http://$ADDR_A,http://$ADDR_B" \
  -o "$OUT/shard-remote.txt" 2> "$OUT/crshard-remote.log"
cmp "$OUT/shard-unsharded.txt" "$OUT/shard-remote.txt"

# 3. Kill one daemon, then run against both endpoints: every shard the dead
# endpoint claims fails, the coordinator retries, gives up on that endpoint,
# and re-dispatches to the survivor — and the bytes still match. Killing
# before dispatch (rather than racing a kill against a sub-second run) makes
# the re-dispatch path deterministic.
kill -9 "$PID_B" 2>/dev/null || true
wait "$PID_B" 2>/dev/null || true
rm -f "$OUT/shard-killed.txt"
"$OUT/crshard" "${SPEC_ARGS[@]}" -shards 8 \
  -endpoints "http://$ADDR_A,http://$ADDR_B" \
  -retries 1 -backoff 50ms -shard-timeout 30s \
  -o "$OUT/shard-killed.txt" 2> "$OUT/crshard-killed.log"
cmp "$OUT/shard-unsharded.txt" "$OUT/shard-killed.txt"
# The dead endpoint was noticed and its shard recovered elsewhere. The
# coordinator's stderr is structured NDJSON, so the checks are jq-shaped.
grep -q '"msg":"gave up"' "$OUT/crshard-killed.log"
grep -q "\"msg\":\"shard done\".*\"executor\":\"http://$ADDR_A\"" "$OUT/crshard-killed.log"

kill -TERM "$PID_A" 2>/dev/null || true
wait "$PID_A" 2>/dev/null || true
trap - EXIT
echo "shard-smoke OK"
