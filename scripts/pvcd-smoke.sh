#!/usr/bin/env bash
# Smoke-test the pvcd daemon end to end, the way an operator would meet
# it: build, boot, wait for readiness, run a workload through the HTTP
# API, replay its SSE event stream (keepalives and Last-Event-ID
# resume), scrape /metrics and prove the page strict-parses as
# Prometheus exposition text with the run counters and latency
# histogram present, check the run-history journal, then drain with
# SIGTERM, require a clean prompt exit, and prove the journal survives
# a restart. CI runs this as its own job (see .github/workflows/ci.yml,
# "smoke").
set -euo pipefail

ADDR="${PVCD_ADDR:-127.0.0.1:8329}"
WORKDIR="$(mktemp -d)"
PVCD_PID=""
cleanup() {
  [ -n "$PVCD_PID" ] && kill -9 "$PVCD_PID" 2>/dev/null
  rm -rf "$WORKDIR"
  return 0
}
trap cleanup EXIT

# json_field FILE KEY -> first string value of KEY (no jq dependency).
json_field() {
  grep -o "\"$2\":\"[^\"]*\"" "$1" | head -n 1 | cut -d'"' -f4
}

echo "== build"
go build -o "$WORKDIR/pvcd" ./cmd/pvcd

HISTORY="$WORKDIR/history.jsonl"

echo "== boot pvcd on $ADDR"
"$WORKDIR/pvcd" -addr "$ADDR" -jobs 2 -log-format json \
  -history "$HISTORY" \
  >"$WORKDIR/pvcd.log" 2>&1 &
PVCD_PID=$!

echo "== wait for readiness"
ready=""
for _ in $(seq 1 100); do
  if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
    ready=1
    break
  fi
  if ! kill -0 "$PVCD_PID" 2>/dev/null; then
    echo "pvcd died during startup:" >&2
    cat "$WORKDIR/pvcd.log" >&2
    exit 1
  fi
  sleep 0.1
done
[ -n "$ready" ] || { echo "pvcd not ready within 10s" >&2; exit 1; }
curl -fsS "http://$ADDR/healthz" >/dev/null

echo "== submit a run over the API"
curl -fsS -X POST "http://$ADDR/v1/runs" \
  -H 'Content-Type: application/json' \
  -D "$WORKDIR/submit.headers" \
  -d '{"workload":"clover-scaling","jobs":2}' >"$WORKDIR/submit.json"
RUN_ID="$(json_field "$WORKDIR/submit.json" id)"
[ -n "$RUN_ID" ] || { echo "no run id in submit response" >&2; cat "$WORKDIR/submit.json" >&2; exit 1; }
echo "   accepted as $RUN_ID"

echo "== every response carries a request-trace id"
grep -qi '^X-Trace-ID: t-' "$WORKDIR/submit.headers" || {
  echo "submit response has no X-Trace-ID header:" >&2
  cat "$WORKDIR/submit.headers" >&2
  exit 1
}

echo "== poll until the run completes"
STATUS=running
for _ in $(seq 1 300); do
  curl -fsS "http://$ADDR/v1/runs/$RUN_ID" >"$WORKDIR/status.json"
  STATUS="$(json_field "$WORKDIR/status.json" status)"
  [ "$STATUS" = running ] || break
  sleep 0.1
done
if [ "$STATUS" != done ]; then
  echo "run $RUN_ID ended as '$STATUS':" >&2
  cat "$WORKDIR/status.json" "$WORKDIR/pvcd.log" >&2
  exit 1
fi

echo "== the run's simulated metrics export is served"
curl -fsS "http://$ADDR/v1/runs/$RUN_ID/metrics" >"$WORKDIR/run-metrics.json"
grep -q '"memo_misses"' "$WORKDIR/run-metrics.json"

echo "== SSE replay opens with a keepalive comment"
curl -fsSN --max-time 10 "http://$ADDR/v1/runs/$RUN_ID/events" >"$WORKDIR/events.txt"
grep -q '^: keepalive' "$WORKDIR/events.txt" || {
  echo "no keepalive comment in the event stream:" >&2
  cat "$WORKDIR/events.txt" >&2
  exit 1
}
grep -q '^event: run$' "$WORKDIR/events.txt"
grep -q '"run-done"' "$WORKDIR/events.txt"
LAST_ID="$(grep '^id: ' "$WORKDIR/events.txt" | tail -n 1 | cut -d' ' -f2)"
[ -n "$LAST_ID" ] || { echo "no event ids in stream" >&2; exit 1; }

echo "== Last-Event-ID resumes mid-stream (from event $((LAST_ID - 1)))"
curl -fsSN --max-time 10 -H "Last-Event-ID: $((LAST_ID - 1))" \
  "http://$ADDR/v1/runs/$RUN_ID/events" >"$WORKDIR/resumed.txt"
grep -q "^id: $LAST_ID\$" "$WORKDIR/resumed.txt" || {
  echo "resumed stream misses the final event:" >&2
  cat "$WORKDIR/resumed.txt" >&2
  exit 1
}
if grep -q "^id: $((LAST_ID - 1))\$" "$WORKDIR/resumed.txt"; then
  echo "resumed stream replayed an already-seen event" >&2
  exit 1
fi

echo "== the history journal records the run"
curl -fsS "http://$ADDR/v1/history" >"$WORKDIR/history.json"
grep -q "\"id\":\"$RUN_ID\"" "$WORKDIR/history.json" || {
  echo "/v1/history does not list $RUN_ID:" >&2
  cat "$WORKDIR/history.json" >&2
  exit 1
}

echo "== the request-trace export is served"
curl -fsS "http://$ADDR/v1/reqtrace" >"$WORKDIR/reqtrace.json"
grep -q '"queue-wait"' "$WORKDIR/reqtrace.json"

echo "== scrape /metrics and strict-parse it"
curl -fsS "http://$ADDR/metrics" >"$WORKDIR/metrics.txt"
"$WORKDIR/pvcd" -validate-metrics "$WORKDIR/metrics.txt"
grep -q '^pvcd_runs_started_total 1$' "$WORKDIR/metrics.txt"
grep -q '^pvcd_runs_completed_total 1$' "$WORKDIR/metrics.txt"
grep -q '^pvcd_runs_failed_total 0$' "$WORKDIR/metrics.txt"

echo "== request-latency SLO histogram and SSE counters are scraped"
grep -q 'pvcsim_http_request_duration_seconds_bucket{route="runs_submit",outcome="ok",le="+Inf"} ' "$WORKDIR/metrics.txt"
grep -q 'pvcsim_http_request_duration_seconds_count{route="run_events",outcome="ok"} ' "$WORKDIR/metrics.txt"
if grep -q '^pvcd_sse_keepalives_total 0$' "$WORKDIR/metrics.txt"; then
  echo "SSE keepalive counter stayed zero after streaming events" >&2
  exit 1
fi
grep -q '^pvcd_sse_resumes_total 1$' "$WORKDIR/metrics.txt" || {
  echo "SSE resume counter does not show the Last-Event-ID replay" >&2
  grep '^pvcd_sse_' "$WORKDIR/metrics.txt" >&2 || true
  exit 1
}

echo "== engine-health metrics from the wall-clock self-profile are scraped"
grep -q '^pvcsim_engine_lane_busy_seconds_total ' "$WORKDIR/metrics.txt"
grep -q 'pvcsim_runner_phase_seconds_count{phase="simulate"} ' "$WORKDIR/metrics.txt"
# clover-scaling drives the event engine, so busy time must move.
if grep -q '^pvcsim_engine_lane_busy_seconds_total 0$' "$WORKDIR/metrics.txt"; then
  echo "engine busy time stayed zero after a simulating run" >&2
  exit 1
fi

echo "== graceful shutdown: SIGTERM must exit 0 within 10s"
kill -TERM "$PVCD_PID"
exited=""
for _ in $(seq 1 100); do
  if ! kill -0 "$PVCD_PID" 2>/dev/null; then
    exited=1
    break
  fi
  sleep 0.1
done
if [ -z "$exited" ]; then
  echo "pvcd still running 10s after SIGTERM:" >&2
  cat "$WORKDIR/pvcd.log" >&2
  exit 1
fi
EXIT=0
wait "$PVCD_PID" || EXIT=$?
if [ "$EXIT" -ne 0 ]; then
  echo "pvcd exited $EXIT after SIGTERM:" >&2
  cat "$WORKDIR/pvcd.log" >&2
  exit 1
fi
PVCD_PID=""

echo "== the journal round-trips byte-exactly offline"
"$WORKDIR/pvcd" -validate-history "$HISTORY"

echo "== the history journal survives a restart"
"$WORKDIR/pvcd" -addr "$ADDR" -jobs 2 -log-format json \
  -history "$HISTORY" \
  >"$WORKDIR/pvcd2.log" 2>&1 &
PVCD_PID=$!
ready=""
for _ in $(seq 1 100); do
  if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
    ready=1
    break
  fi
  sleep 0.1
done
[ -n "$ready" ] || { echo "restarted pvcd not ready within 10s" >&2; cat "$WORKDIR/pvcd2.log" >&2; exit 1; }
curl -fsS "http://$ADDR/v1/history" >"$WORKDIR/history2.json"
grep -q "\"id\":\"$RUN_ID\"" "$WORKDIR/history2.json" || {
  echo "restarted daemon lost run $RUN_ID from its history:" >&2
  cat "$WORKDIR/history2.json" >&2
  exit 1
}
kill -TERM "$PVCD_PID"
wait "$PVCD_PID" || { echo "restarted pvcd exited non-zero after SIGTERM" >&2; exit 1; }
PVCD_PID=""

echo "ok: pvcd smoke passed"
