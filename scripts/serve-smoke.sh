#!/usr/bin/env bash
# serve-smoke: end-to-end exercise of the crserve daemon. Boots the
# service, drives the whole client workflow over HTTP (submit → stream →
# result), proves that a result-cache hit serves bytes identical to the
# cold computation (the service-determinism contract, DESIGN.md §8),
# checks the health and metrics endpoints, rejects a shard job that asks
# for traces with 400, and drains gracefully on SIGTERM. Shared by `make serve-smoke` and CI's serve-smoke job.
set -euo pipefail

if ! command -v jq >/dev/null 2>&1; then
  echo "serve-smoke: jq not installed, skipping" >&2
  exit 0
fi

ADDR="${CRSERVE_ADDR:-127.0.0.1:8344}"
OUT="${CRSERVE_OUT:-bin}"
mkdir -p "$OUT"

go build -o "$OUT/crserve" ./cmd/crserve
"$OUT/crserve" -h >/dev/null 2>&1 # help exits zero

"$OUT/crserve" -addr "$ADDR" -workers 2 2> "$OUT/crserve.log" &
PID=$!
trap 'kill -9 "$PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  if curl -sf "http://$ADDR/healthz" >/dev/null; then break; fi
  sleep 0.1
done
curl -sf "http://$ADDR/readyz" | grep -q ready

SPEC='{"sim":{"n":64,"deploy":"disk","algo":"fixed"},"seed":7,"trials":20}'
JOB=$(curl -sf -X POST "http://$ADDR/v1/jobs" -d "$SPEC" | jq -r .id)
test -n "$JOB"

# The stream is valid NDJSON that opens with the job event and closes with
# the result event; reading it to EOF doubles as waiting for the job.
curl -sN "http://$ADDR/v1/jobs/$JOB/stream" > "$OUT/stream.ndjson"
jq -ce . "$OUT/stream.ndjson" >/dev/null
head -n 1 "$OUT/stream.ndjson" | jq -e '.event == "job"' >/dev/null
tail -n 1 "$OUT/stream.ndjson" | jq -e '.event == "result" and .state == "done"' >/dev/null

curl -sf "http://$ADDR/v1/jobs/$JOB/result" -o "$OUT/result-cold.json"
jq -e '.kind == "sim" and .trials == 20' "$OUT/result-cold.json" >/dev/null

# Resubmitting the same spec must hit the cache and serve bytes identical
# to the computed result.
WARM=$(curl -sf -X POST "http://$ADDR/v1/jobs" -d "$SPEC")
echo "$WARM" | jq -e '.state == "done" and .cached == true' >/dev/null
WARMID=$(echo "$WARM" | jq -r .id)
curl -sf "http://$ADDR/v1/jobs/$WARMID/result" -o "$OUT/result-warm.json"
cmp "$OUT/result-cold.json" "$OUT/result-warm.json"

# Shard jobs capture no traces: a shard block carrying a trace policy is
# an unknown field, rejected before anything runs.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/jobs" \
  -d '{"experiment":"E5","quick":true,"shard":{"index":0,"count":2,"trace":{}}}')
test "$code" = 400

curl -sf "http://$ADDR/metrics" > "$OUT/serve-metrics.ndjson"
jq -ce . "$OUT/serve-metrics.ndjson" >/dev/null
grep -q '"name":"serve.cache_hits","value":1' "$OUT/serve-metrics.ndjson"
grep -q '"name":"serve.jobs_done"' "$OUT/serve-metrics.ndjson"

kill -TERM "$PID"
wait "$PID" # graceful drain exits 0
trap - EXIT
grep -q '"event":"http"' "$OUT/crserve.log"
echo "serve-smoke OK"
