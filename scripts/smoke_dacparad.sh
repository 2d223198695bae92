#!/usr/bin/env bash
# Smoke test for the dacparad daemon: boot it, submit a circuit over
# HTTP, poll the job to completion, validate the metrics snapshot
# schema, exercise a mid-run cancel, and shut down via SIGTERM. Used by
# CI and runnable locally from the repo root:
#
#   ./scripts/smoke_dacparad.sh [port]
set -euo pipefail

PORT="${1:-18080}"
BASE="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
DAEMON_PID=""
W1_PID=""
W2_PID=""

cleanup() {
  for pid in "$DAEMON_PID" "$W1_PID" "$W2_PID"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "smoke: FAIL: $*" >&2; exit 1; }

# jq when available, a grep fallback otherwise (both present on
# ubuntu-latest; the fallback keeps the script runnable anywhere).
json_field() { # json_field <file> <jq-expr> <grep-regex>
  if command -v jq >/dev/null 2>&1; then
    jq -r "$2" "$1"
  else
    grep -o "$3" "$1" | head -1 | sed 's|.*: *||; s|[",]||g'
  fi
}

echo "smoke: building dacparad + benchgen"
go build -o "$WORK/dacparad" ./cmd/dacparad
go build -o "$WORK/benchgen" ./cmd/benchgen

echo "smoke: generating the tiny suite"
"$WORK/benchgen" -scale tiny -name voter -out "$WORK"
AIG="$(ls "$WORK"/voter*.aig | head -1)"
[[ -s "$AIG" ]] || fail "benchgen produced no voter AIGER"

echo "smoke: booting dacparad on :$PORT"
"$WORK/dacparad" -addr "127.0.0.1:$PORT" -max-jobs 2 -queue 8 -job-workers 2 &
DAEMON_PID=$!

for i in $(seq 1 100); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
  [[ $i -eq 100 ]] && fail "daemon never became healthy"
  sleep 0.1
done
echo "smoke: daemon healthy"

# --- happy path: submit, poll, result, metrics schema ---------------
curl -sf -X POST --data-binary "@$AIG" \
  "$BASE/jobs?engine=dacpara&workers=2&verify=1" >"$WORK/submit.json" \
  || fail "submission rejected"
JOB="$(json_field "$WORK/submit.json" .id '"id": *"[^"]*"')"
[[ "$JOB" == j* ]] || fail "no job id in submit response: $(cat "$WORK/submit.json")"
echo "smoke: submitted $JOB"

STATE=""
for i in $(seq 1 300); do
  curl -sf "$BASE/jobs/$JOB" >"$WORK/status.json" || fail "status poll failed"
  STATE="$(json_field "$WORK/status.json" .state '"state": *"[^"]*"')"
  case "$STATE" in
    done) break ;;
    failed|cancelled) fail "job $JOB ended $STATE: $(cat "$WORK/status.json")" ;;
  esac
  sleep 0.1
done
[[ "$STATE" == done ]] || fail "job $JOB stuck in '$STATE'"
echo "smoke: $JOB done"

grep -q '"cache_hit"' "$WORK/status.json" || fail "status payload missing cache_hit"
grep -q '"equivalent": *true' "$WORK/status.json" || fail "verify did not prove equivalence: $(cat "$WORK/status.json")"

curl -sf -o "$WORK/out.aig" "$BASE/jobs/$JOB/result" || fail "result download failed"
head -c 3 "$WORK/out.aig" | grep -q '^aig' || fail "result is not binary AIGER"

curl -sf "$BASE/jobs/$JOB/metrics" >"$WORK/metrics.json" || fail "metrics download failed"
SCHEMA="$(json_field "$WORK/metrics.json" .schema '"schema": *"[^"]*"')"
[[ "$SCHEMA" == "dacpara-metrics/v1" ]] || fail "metrics schema '$SCHEMA', want dacpara-metrics/v1"
if command -v jq >/dev/null 2>&1; then
  PHASES="$(jq '.phases | length' "$WORK/metrics.json")"
  [[ "$PHASES" -ge 1 ]] || fail "metrics snapshot has no phases"
  jq -e '.qor.final_ands >= 0' "$WORK/metrics.json" >/dev/null || fail "metrics snapshot has no QoR"
else
  grep -q '"phases": *\[' "$WORK/metrics.json" || fail "metrics snapshot has no phases"
fi
echo "smoke: metrics schema ok"

# --- a parameter the daemon does not know is a 400, never ignored ---
CODE="$(curl -s -o "$WORK/unknown.json" -w '%{http_code}' -X POST --data-binary "@$AIG" "$BASE/jobs?engine=dacpara&partition=2")"
[[ "$CODE" == 400 ]] || fail "partition=2 answered $CODE, want 400: $(cat "$WORK/unknown.json")"
grep -q 'partition' "$WORK/unknown.json" || fail "the 400 does not name the parameter: $(cat "$WORK/unknown.json")"

# --- cache: resubmitting identical work is a hit --------------------
curl -sf -X POST --data-binary "@$AIG" \
  "$BASE/jobs?engine=dacpara&workers=2&verify=1" >"$WORK/resubmit.json" \
  || fail "resubmission rejected"
JOB2="$(json_field "$WORK/resubmit.json" .id '"id": *"[^"]*"')"
for i in $(seq 1 300); do
  curl -sf "$BASE/jobs/$JOB2" >"$WORK/status2.json"
  [[ "$(json_field "$WORK/status2.json" .state '"state": *"[^"]*"')" == done ]] && break
  sleep 0.1
done
grep -q '"cache_hit": *true' "$WORK/status2.json" || fail "identical resubmission not served from cache: $(cat "$WORK/status2.json")"
echo "smoke: cache hit ok"

# --- mid-run cancel -------------------------------------------------
curl -sf -X POST --data-binary "@$AIG" \
  "$BASE/jobs?engine=dacpara&workers=2&passes=2000&zero_gain=1" >"$WORK/slow.json" \
  || fail "slow submission rejected"
SLOW="$(json_field "$WORK/slow.json" .id '"id": *"[^"]*"')"
for i in $(seq 1 100); do
  curl -sf "$BASE/jobs/$SLOW" >"$WORK/slowstat.json"
  [[ "$(json_field "$WORK/slowstat.json" .state '"state": *"[^"]*"')" == running ]] && break
  [[ $i -eq 100 ]] && fail "slow job never started: $(cat "$WORK/slowstat.json")"
  sleep 0.05
done
sleep 0.2  # let it get into the level loops: this is a *mid-run* cancel
curl -sf -X POST "$BASE/jobs/$SLOW/cancel" >/dev/null || fail "cancel request failed"
for i in $(seq 1 100); do
  curl -sf "$BASE/jobs/$SLOW" >"$WORK/slowstat.json"
  STATE="$(json_field "$WORK/slowstat.json" .state '"state": *"[^"]*"')"
  [[ "$STATE" == cancelled ]] && break
  [[ "$STATE" == done || "$STATE" == failed ]] && fail "cancelled job ended $STATE"
  [[ $i -eq 100 ]] && fail "cancel not observed: still '$STATE'"
  sleep 0.1
done
echo "smoke: mid-run cancel ok"

# --- process metrics + graceful shutdown ----------------------------
curl -sf "$BASE/metrics" >"$WORK/proc.json" || fail "process metrics failed"
grep -q '"dacparad-process/v1"' "$WORK/proc.json" || fail "process metrics schema: $(cat "$WORK/proc.json")"

kill -TERM "$DAEMON_PID"
for i in $(seq 1 100); do
  kill -0 "$DAEMON_PID" 2>/dev/null || { DAEMON_PID=""; break; }
  [[ $i -eq 100 ]] && fail "daemon did not exit on SIGTERM"
  sleep 0.1
done
echo "smoke: clean SIGTERM drain"

# --- crash recovery: kill -9 mid-flow, restart, resume --------------
# A durable daemon journals every job and checkpoints flow jobs at step
# boundaries. Boot one on a data dir, submit a slow multi-step flow
# (fast first step -> an early checkpoint; slow rw step for the crash to
# land in), kill -9 once the checkpoint exists, restart on the same data
# dir, and require the SAME job ID to resume from the checkpoint and
# reach done.
DATA="$WORK/data"
echo "smoke: booting durable dacparad on :$PORT (data dir $DATA)"
"$WORK/dacparad" -addr "127.0.0.1:$PORT" -max-jobs 1 -queue 8 -job-workers 2 -data-dir "$DATA" &
DAEMON_PID=$!
for i in $(seq 1 100); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "durable daemon died during startup"
  [[ $i -eq 100 ]] && fail "durable daemon never became healthy"
  sleep 0.1
done

# Flow script semicolons must be URL-encoded (%3B): "b; rw -z; b".
curl -sf -X POST --data-binary "@$AIG" \
  "$BASE/jobs?flow=b%3B%20rw%20-z%3B%20b&workers=2&passes=2000" >"$WORK/flow.json" \
  || fail "flow submission rejected"
FLOWJOB="$(json_field "$WORK/flow.json" .id '"id": *"[^"]*"')"
[[ "$FLOWJOB" == j* ]] || fail "no job id in flow submit response: $(cat "$WORK/flow.json")"
echo "smoke: submitted flow job $FLOWJOB"

# Wait for the first step checkpoint to hit the disk, then pull the plug.
for i in $(seq 1 200); do
  [[ -s "$DATA/checkpoints/$FLOWJOB.ckpt" ]] && break
  STATE="$(curl -sf "$BASE/jobs/$FLOWJOB" | grep -o '"state": *"[^"]*"' | head -1)"
  case "$STATE" in
    *done*|*failed*|*cancelled*) fail "flow job ended ($STATE) before a checkpoint; crash window missed" ;;
  esac
  [[ $i -eq 200 ]] && fail "no checkpoint file appeared for $FLOWJOB"
  sleep 0.05
done
echo "smoke: checkpoint on disk, kill -9"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "smoke: restarting on the same data dir"
"$WORK/dacparad" -addr "127.0.0.1:$PORT" -max-jobs 1 -queue 8 -job-workers 2 -data-dir "$DATA" >"$WORK/restart.log" &
DAEMON_PID=$!
for i in $(seq 1 100); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during recovery restart: $(cat "$WORK/restart.log")"
  [[ $i -eq 100 ]] && fail "daemon never became healthy after restart"
  sleep 0.1
done
grep -q "recovered" "$WORK/restart.log" || fail "restart did not report recovery: $(cat "$WORK/restart.log")"

STATE=""
for i in $(seq 1 600); do
  curl -sf "$BASE/jobs/$FLOWJOB" >"$WORK/flowstat.json" || fail "recovered job $FLOWJOB unknown after restart"
  STATE="$(json_field "$WORK/flowstat.json" .state '"state": *"[^"]*"')"
  case "$STATE" in
    done) break ;;
    failed|cancelled|deadline_exceeded) fail "recovered job $FLOWJOB ended $STATE: $(cat "$WORK/flowstat.json")" ;;
  esac
  sleep 0.1
done
[[ "$STATE" == done ]] || fail "recovered job $FLOWJOB stuck in '$STATE'"
grep -q '"resumed": *true' "$WORK/flowstat.json" || fail "recovered job did not resume: $(cat "$WORK/flowstat.json")"
grep -q '"resume_step": *[1-9]' "$WORK/flowstat.json" || fail "recovered job restarted from step 0: $(cat "$WORK/flowstat.json")"
curl -sf -o "$WORK/resumed.aig" "$BASE/jobs/$FLOWJOB/result" || fail "resumed result download failed"
head -c 3 "$WORK/resumed.aig" | grep -q '^aig' || fail "resumed result is not binary AIGER"
echo "smoke: kill -9 recovery + checkpoint resume ok"

kill -TERM "$DAEMON_PID"
for i in $(seq 1 100); do
  kill -0 "$DAEMON_PID" 2>/dev/null || { DAEMON_PID=""; break; }
  [[ $i -eq 100 ]] && fail "durable daemon did not exit on SIGTERM"
  sleep 0.1
done
echo "smoke: clean durable SIGTERM drain"

# --- cluster failover: coordinator + 2 workers, kill -9 the busy one -
# The coordinator leases jobs to pull workers; a worker that stops
# heartbeating loses its lease and its job resumes from the last
# uploaded checkpoint on the survivor. This phase boots that topology,
# submits a slow multi-step flow, kill -9s whichever worker holds the
# lease once the first checkpoint lands, and requires the job to finish
# on the other worker with resume_step >= 1.
CDATA="$WORK/cdata"
echo "smoke: booting coordinator on :$PORT with 2 workers"
"$WORK/dacparad" -role coordinator -addr "127.0.0.1:$PORT" -max-jobs 1 -queue 8 \
  -job-workers 2 -data-dir "$CDATA" -lease 2s -heartbeat 200ms &
DAEMON_PID=$!
for i in $(seq 1 100); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "coordinator died during startup"
  [[ $i -eq 100 ]] && fail "coordinator never became healthy"
  sleep 0.1
done
"$WORK/dacparad" -role worker -join "$BASE" -worker-id w1 &
W1_PID=$!
"$WORK/dacparad" -role worker -join "$BASE" -worker-id w2 &
W2_PID=$!

for i in $(seq 1 100); do
  curl -sf "$BASE/metrics" >"$WORK/cmetrics.json" || fail "coordinator metrics poll failed"
  grep -q '"live_workers": *2' "$WORK/cmetrics.json" && break
  [[ $i -eq 100 ]] && fail "both workers never registered: $(cat "$WORK/cmetrics.json")"
  sleep 0.1
done
grep -q '"dacparad-cluster/v1"' "$WORK/cmetrics.json" || fail "no cluster section in /metrics: $(cat "$WORK/cmetrics.json")"
echo "smoke: both workers registered"

curl -sf -X POST --data-binary "@$AIG" \
  "$BASE/jobs?flow=b%3B%20rw%20-z%3B%20b&workers=2&passes=2000" >"$WORK/cjob.json" \
  || fail "cluster flow submission rejected"
CJOB="$(json_field "$WORK/cjob.json" .id '"id": *"[^"]*"')"
[[ "$CJOB" == j* ]] || fail "no job id in cluster submit response: $(cat "$WORK/cjob.json")"
echo "smoke: submitted cluster flow job $CJOB"

# Wait for the first worker-uploaded checkpoint to show in the cluster
# metrics, then read which worker holds the lease.
for i in $(seq 1 400); do
  curl -sf "$BASE/metrics" >"$WORK/cmetrics.json"
  grep -qE '"checkpoints_uploaded": *[1-9]' "$WORK/cmetrics.json" && break
  STATE="$(curl -sf "$BASE/jobs/$CJOB" | grep -o '"state": *"[^"]*"' | head -1)"
  case "$STATE" in
    *done*|*failed*|*cancelled*) fail "cluster job ended ($STATE) before a checkpoint; kill window missed" ;;
  esac
  [[ $i -eq 400 ]] && fail "no cluster checkpoint uploaded: $(cat "$WORK/cmetrics.json")"
  sleep 0.05
done

if command -v jq >/dev/null 2>&1; then
  BUSY="$(jq -r '.cluster.workers[] | select(.state=="busy") | .id' "$WORK/cmetrics.json" | head -1)"
  [[ -n "$BUSY" ]] || fail "checkpoint uploaded but no busy worker: $(cat "$WORK/cmetrics.json")"
  case "$BUSY" in
    w1) VICTIM_PID=$W1_PID ;;
    w2) VICTIM_PID=$W2_PID ;;
    *) fail "unknown busy worker '$BUSY'" ;;
  esac
  echo "smoke: kill -9 busy worker $BUSY"
  kill -9 "$VICTIM_PID"
  wait "$VICTIM_PID" 2>/dev/null || true
  [[ "$BUSY" == w1 ]] && W1_PID="" || W2_PID=""
else
  echo "smoke: jq missing; skipping the worker kill (completion still checked)"
fi

STATE=""
for i in $(seq 1 1800); do
  curl -sf "$BASE/jobs/$CJOB" >"$WORK/cstat.json" || fail "cluster job status poll failed"
  STATE="$(json_field "$WORK/cstat.json" .state '"state": *"[^"]*"')"
  case "$STATE" in
    done) break ;;
    failed|cancelled|deadline_exceeded) fail "cluster job ended $STATE: $(cat "$WORK/cstat.json")" ;;
  esac
  sleep 0.1
done
[[ "$STATE" == done ]] || fail "cluster job stuck in '$STATE'"
if command -v jq >/dev/null 2>&1; then
  grep -qE '"resume_step": *[1-9]' "$WORK/cstat.json" || fail "failed-over job restarted from step 0: $(cat "$WORK/cstat.json")"
  grep -qE '"attempts": *[2-9]' "$WORK/cstat.json" || fail "failover did not consume a second lease: $(cat "$WORK/cstat.json")"
  curl -sf "$BASE/metrics" >"$WORK/cmetrics.json"
  jq -e '.cluster.leases_expired >= 1 and .cluster.requeued >= 1' "$WORK/cmetrics.json" >/dev/null \
    || fail "failover counters missing: $(cat "$WORK/cmetrics.json")"
fi
curl -sf -o "$WORK/cluster.aig" "$BASE/jobs/$CJOB/result" || fail "cluster result download failed"
head -c 3 "$WORK/cluster.aig" | grep -q '^aig' || fail "cluster result is not binary AIGER"
echo "smoke: cluster failover ok"

for pid in "$W1_PID" "$W2_PID"; do
  [[ -n "$pid" ]] && kill -TERM "$pid" 2>/dev/null || true
done
W1_PID=""
W2_PID=""
kill -TERM "$DAEMON_PID"
for i in $(seq 1 100); do
  kill -0 "$DAEMON_PID" 2>/dev/null || { DAEMON_PID=""; break; }
  [[ $i -eq 100 ]] && fail "coordinator did not exit on SIGTERM"
  sleep 0.1
done
echo "smoke: PASS"
