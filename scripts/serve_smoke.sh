#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the `rppm serve` daemon:
#
#   1. start rppm-serve with a memory budget and a trace dir,
#   2. wait for /healthz,
#   3. predict over HTTP and diff the JSON byte-for-byte against the CLI's
#      `rppm predict -json` (both build the response through the same code
#      path, so any divergence is a serving-layer bug),
#   4. exercise /v1/benchmarks, /v1/archs and /metrics,
#   5. re-request to confirm a cache hit shows up in the metrics,
#   5b. observability leg: the ?debug=1 span tree accounts for >=90% of
#       the request wall time, /debug/requests is valid trace_event JSON
#       (validated through `rppm-diag trace`), the pprof heap profile
#       answers on the ops listener, /debug/cache inventories the session,
#       and the JSON access log parses,
#   6. SIGTERM and require a clean graceful drain,
#   7. restart on the same trace dir and byte-diff a prediction served
#      purely from the persisted profile (profiler-run counter must be 0),
#   8. fsck the spill directory: every persisted artifact must validate
#      (magic, version, CRC) and persistence must report healthy.
#
# Usage: scripts/serve_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18344}"
ADDR="127.0.0.1:${PORT}"
OPS_ADDR="127.0.0.1:$((PORT + 1))"
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build" >&2
go build -o "$WORK/rppm" ./cmd/rppm
go build -o "$WORK/rppm-serve" ./cmd/rppm-serve
go build -o "$WORK/rppm-diag" ./cmd/rppm-diag

echo "== start rppm-serve on $ADDR (ops on $OPS_ADDR, json logs)" >&2
"$WORK/rppm-serve" -addr "$ADDR" -max-bytes 256MiB -trace-dir "$WORK/traces" \
  -log-format json -ops-addr "$OPS_ADDR" \
  2>"$WORK/serve.log" &
SERVE_PID=$!

for i in $(seq 1 100); do
  if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "rppm-serve died during startup:" >&2; cat "$WORK/serve.log" >&2; exit 1
  fi
  sleep 0.1
done
curl -sf "http://$ADDR/healthz" >/dev/null || { echo "healthz never came up" >&2; exit 1; }

echo "== served predict vs CLI -json" >&2
curl -sf "http://$ADDR/v1/predict?bench=kmeans&scale=0.05&seed=1" >"$WORK/srv.json"
"$WORK/rppm" predict -bench kmeans -scale 0.05 -seed 1 -json >"$WORK/cli.json"
diff "$WORK/srv.json" "$WORK/cli.json" || {
  echo "served prediction differs from CLI output" >&2; exit 1; }

echo "== list endpoints" >&2
curl -sf "http://$ADDR/v1/benchmarks" | grep -q kmeans
curl -sf "http://$ADDR/v1/archs" | grep -q '"Name":"base"'

echo "== served sweep vs CLI -json" >&2
curl -sf "http://$ADDR/v1/sweep?bench=kmeans&configs=4&scale=0.05&seed=1" >"$WORK/srv_sweep.json"
grep -q '"fastest"' "$WORK/srv_sweep.json"
"$WORK/rppm" sweep -bench kmeans -configs 4 -scale 0.05 -seed 1 -json >"$WORK/cli_sweep.json"
diff "$WORK/srv_sweep.json" "$WORK/cli_sweep.json" || {
  echo "served sweep differs from CLI output" >&2; exit 1; }

echo "== warm re-request hits the cache" >&2
curl -sf "http://$ADDR/v1/predict?bench=kmeans&scale=0.05&seed=1" >"$WORK/srv2.json"
diff "$WORK/srv.json" "$WORK/srv2.json"
HITS=$(curl -sf "http://$ADDR/metrics" | awk '/^rppm_cache_hits_total/ {print $2}')
[ "$HITS" -ge 1 ] || { echo "no cache hits after identical re-request" >&2; exit 1; }


echo "== observability: debug span tree accounts for the wall time" >&2
curl -sf "http://$ADDR/v1/predict?bench=hotspot&scale=0.05&seed=1&debug=1" >"$WORK/debug.json"
python3 - "$WORK/debug.json" <<'PY'
import json, sys
resp = json.load(open(sys.argv[1]))
d = resp.get("debug")
assert d, "debug=1 response has no debug payload"
assert len(d["trace_id"]) == 16, f"bad trace_id {d['trace_id']!r}"
total = d["total_us"]
covered = sum(sp["dur_us"] for sp in d["spans"])
assert total > 0, "total_us not positive"
assert covered >= 0.9 * total, f"spans cover {covered}us of {total}us (<90%)"
names = [sp["name"] for sp in d["spans"]]
assert "exec" in names, f"no exec stage in {names}"
blob = json.dumps(d)
assert '"cache": "miss"' in blob or '"cache":"miss"' in blob.replace(" ", ""), "cold request recorded no cache miss"
print(f"span tree OK: {covered}us of {total}us covered, stages {names}")
PY

echo "== observability: ring dump is valid trace_event JSON (rppm-diag trace)" >&2
"$WORK/rppm-diag" trace "http://$OPS_ADDR/debug/requests" >"$WORK/diag_trace.out"
grep -q "valid trace_event JSON" "$WORK/diag_trace.out" || {
  echo "rppm-diag trace did not validate the ring dump:" >&2
  cat "$WORK/diag_trace.out" >&2; exit 1; }
grep -q "predict" "$WORK/diag_trace.out" || {
  echo "no predict trace in the ring summary" >&2; exit 1; }

echo "== observability: pprof heap answers on the ops listener" >&2
curl -sf "http://$OPS_ADDR/debug/pprof/heap?debug=1" >"$WORK/heap.out" || {
  echo "pprof heap endpoint did not answer on $OPS_ADDR" >&2; exit 1; }
grep -q "heap profile" "$WORK/heap.out" || {
  echo "pprof heap output is not a heap profile" >&2; exit 1; }

echo "== observability: /debug/cache inventories the session" >&2
curl -sf "http://$OPS_ADDR/debug/cache" >"$WORK/cache.json"
python3 - "$WORK/cache.json" <<'PY'
import json, sys
inv = json.load(open(sys.argv[1]))
assert inv["count"] >= 1 and len(inv["entries"]) == inv["count"], inv
kinds = {e["kind"] for e in inv["entries"]}
assert "profile" in kinds, f"no profile entries in {kinds}"
print(f"cache inventory OK: {inv['count']} entries, kinds {sorted(kinds)}")
PY

echo "== observability: JSON access log parses" >&2
python3 - "$WORK/serve.log" <<'PY'
import json, sys
recs = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
acc = [r for r in recs if r.get("msg") == "request"]
assert acc, "no access-log records in the server log"
pred = [r for r in acc if r.get("route") == "predict"]
assert pred, f"no predict access-log record in {len(acc)} records"
r = pred[0]
assert r["status"] == 200 and len(r["trace_id"]) == 16 and "dur_ms" in r, r
print(f"access log OK: {len(acc)} records, first predict trace {r['trace_id']} cache={r.get('cache')}")
PY

echo "== artifacts persisted" >&2
ls "$WORK/traces"/kmeans_1_*.rpt >/dev/null || { echo "no trace file spilled" >&2; exit 1; }
ls "$WORK/traces"/kmeans_1_*.rpp >/dev/null || { echo "no profile file spilled" >&2; exit 1; }

echo "== graceful drain on SIGTERM" >&2
kill -TERM "$SERVE_PID"
for i in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "rppm-serve ignored SIGTERM" >&2; exit 1
fi
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
grep -q "drained, exiting" "$WORK/serve.log" || {
  echo "no drain message in log:" >&2; cat "$WORK/serve.log" >&2; exit 1; }

echo "== restart: persisted profile serves the cold path" >&2
"$WORK/rppm-serve" -addr "$ADDR" -max-bytes 256MiB -trace-dir "$WORK/traces" \
  -log-format json \
  2>"$WORK/serve2.log" &
SERVE_PID=$!
for i in $(seq 1 100); do
  if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "restarted rppm-serve died during startup:" >&2; cat "$WORK/serve2.log" >&2; exit 1
  fi
  sleep 0.1
done
curl -sf "http://$ADDR/v1/predict?bench=kmeans&scale=0.05&seed=1" >"$WORK/srv3.json"
diff "$WORK/srv.json" "$WORK/srv3.json" || {
  echo "prediction from persisted profile differs from the freshly-profiled one" >&2; exit 1; }
RUNS=$(curl -sf "http://$ADDR/metrics" | awk '/^rppm_profile_runs_total/ {print $2}')
[ "$RUNS" = "0" ] || {
  echo "restarted server ran the profiler $RUNS times (want 0)" >&2; exit 1; }
LOADS=$(curl -sf "http://$ADDR/metrics" | awk '/^rppm_profile_loads_total/ {print $2}')
[ "$LOADS" -ge 1 ] || { echo "restarted server loaded no persisted profile" >&2; exit 1; }
curl -sf "http://$ADDR/healthz" | grep -q '"persistence":"ok"' || {
  echo "healthz does not report healthy persistence" >&2; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "== fsck the spill directory" >&2
"$WORK/rppm-diag" fsck "$WORK/traces" >"$WORK/fsck.out" || {
  echo "fsck found corruption in a clean spill dir:" >&2
  cat "$WORK/fsck.out" >&2; exit 1; }
grep -q " 0 corrupt" "$WORK/fsck.out" || {
  echo "fsck summary reports corruption:" >&2; cat "$WORK/fsck.out" >&2; exit 1; }

echo "serve smoke OK" >&2
