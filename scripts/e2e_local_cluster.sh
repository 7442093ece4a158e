#!/usr/bin/env bash
# End-to-end deployment check: launch a real 3-DC poccd cluster on localhost
# (scripts/cluster.sh: one multi-partition process per DC), run these legs
# through pocc_loadgen, then tear everything down. Every load's client
# history replays through the causal checker; any violation fails the run.
#
#   smoke       read-your-writes + the cross-DC WC-DEP chain
#   pipelined   8 sessions x pipeline 4 over 8 connections per DC — the
#               benchmark of record, BENCH_tcp_loadgen.json. A mid-load
#               /metrics scrape of every DC is saved as metrics_dc*.prom and
#               must carry the op-latency histograms and transport counters
#               (wake-pipe writes included), with connections placed across
#               its two event loops; each DC's messages per batch and wake
#               writes per client request are printed, not gated.
#   serial      8 client threads x 2 connections per DC
#   highconn    fd limit raised, 128 connection pools per DC (one socket per
#               partition each), pipelined; zero op failures
#   tail        zipfian theta 0.99 over 1M keys per partition, 8..1024 B
#               values; BENCH_tail_latency.json
#   signal      SIGUSR1 storm on every poccd (its handler lacks SA_RESTART
#               and the main thread masks it, so event-loop syscalls take
#               EINTR) during a pipelined load: zero new reconnects, server
#               or client — EINTR must never tear a connection. SIGUSR2
#               stats dumps bracket the storm, since the exit line alone
#               cannot tell storm reconnects from startup dial races.
#   kill        only with E2E_KILL_LEG=1, which makes every poccd durable:
#               a disrupted load while one DC is kill -9'd and restarted on
#               its data dir; it must replay its WAL and rejoin
#
# The pipelined and tail legs print their delta vs the committed baseline in
# bench/baselines/ (non-gating). Each leg uses its own keyspace
# (--key-offset) and client ids (--client-base): reading a version left by
# an earlier leg's clients would (correctly) fail the leg's history replay.
# Logs, configs and artifacts stay in OUT_DIR.
#
# usage: scripts/e2e_local_cluster.sh [BUILD_DIR] [OUT_DIR]
# env:   E2E_SYSTEM (pocc)  E2E_BASE_PORT (7450)  E2E_DURATION_S (5)
#        E2E_KILL_LEG (0)
# exit:  0 pass; 3 binary missing; 4 a DC never ready; 5 a process died;
#        7 restart not ready or no WAL replay; 8 kill-leg load; 9 signal
#        leg; 10 pipelined leg or mid-load scrape; 11 highconn op failures;
#        12 a poccd exit-stats line reports nonzero transport_send_overflows
#        or transport_down_buffer_drops (a refused replication frame);
#        any other: the failing smoke/serial/highconn/tail loadgen's status
set -euo pipefail

NAME=e2e
BUILD_DIR="${1:-build}"
OUT_DIR="${2:-e2e-out}"
source "$(dirname "$0")/cluster.sh"
SYSTEM="${E2E_SYSTEM:-pocc}"
BASE_PORT="${E2E_BASE_PORT:-7450}"
DURATION_S="${E2E_DURATION_S:-5}"
KILL_LEG="${E2E_KILL_LEG:-0}"
DURABLE="$KILL_LEG"
CLIENTS=8
PIPELINE=4

# The high-connection leg opens thousands of client sockets, and each poccd
# carries its share of inbound ones: raise the fd soft limit to the hard one.
HARD_FD="$(ulimit -Hn)"
if [[ "$HARD_FD" != "unlimited" ]]; then
  ulimit -n "$HARD_FD" 2>/dev/null || true
fi
echo "e2e: fd limit $(ulimit -n) (hard $HARD_FD)"

require_bins poccd pocc_loadgen
cluster_start

echo "e2e: causal smoke (read-your-writes + WC-DEP chain across DCs)"
start_load "$OUT_DIR/loadgen_smoke.log" --mode smoke --client-base 100000
wait_load "causal smoke"
cat "$OUT_DIR/loadgen_smoke.log"

echo "e2e: pipelined checked load ($CLIENTS sessions x pipeline $PIPELINE over 8 connections per DC for ${DURATION_S}s)"
start_load "$OUT_DIR/loadgen_pipelined.log" \
  --threads "$CLIENTS" --connections 8 --pipeline "$PIPELINE" \
  --duration-s "$DURATION_S" --client-base 200000 \
  --out "$OUT_DIR/BENCH_tcp_loadgen.json"
sleep 2
# Every DC's scrape must carry the op-latency and transport series, and show
# client connections placed on another event loop than the one that
# accepted them: 16 pipelined-leg sockets per DC over 2 loops all staying
# put has odds of about 2^-16, so a zero count means placement is broken.
for dc in $(seq 0 $((DCS - 1))); do
  prom="$OUT_DIR/metrics_dc${dc}.prom"
  http_get "$(metrics_port "$dc")" /metrics | http_body > "$prom" || true
  if ! grep -q '^pocc_server_op_us_bucket{op="get",le="' "$prom"; then
    echo "e2e: FAIL — dc$dc mid-load /metrics scrape is missing pocc_server_op_us" >&2
    exit 10
  fi
  if ! grep -q '^pocc_transport_frames_in_total ' "$prom"; then
    echo "e2e: FAIL — dc$dc mid-load /metrics scrape is missing transport counters" >&2
    exit 10
  fi
  moves="$(awk '$1 == "pocc_transport_migrations_total" { print $2 }' "$prom")"
  if [[ -z "$moves" ]] || ! awk -v m="$moves" 'BEGIN { exit !(m > 0) }'; then
    echo "e2e: FAIL — dc$dc placed no connection on another loop (pocc_transport_migrations_total=${moves:-missing})" >&2
    exit 10
  fi
  wakes="$(awk '$1 == "pocc_transport_wake_writes_total" { print $2 }' "$prom")"
  if [[ -z "$wakes" ]]; then
    echo "e2e: FAIL — dc$dc mid-load /metrics scrape is missing pocc_transport_wake_writes_total" >&2
    exit 10
  fi
  # What pass-end batch flushing trades (printed, not gated): replication
  # messages per Batch frame against cross-thread wake-pipe writes per
  # client request.
  ratios="$(awk '
    $1 == "pocc_batch_messages_total" { msgs = $2 }
    $1 == "pocc_batch_batches_total" { batches = $2 }
    $1 == "pocc_transport_wake_writes_total" { wakes = $2 }
    $1 == "pocc_host_client_requests_total" { reqs = $2 }
    END {
      per_batch = "n/a"; per_req = "n/a"
      if (batches > 0) per_batch = sprintf("%.2f", msgs / batches)
      if (reqs > 0) per_req = sprintf("%.3f", wakes / reqs)
      printf "%s msgs/batch, %s wake writes/request", per_batch, per_req
    }' "$prom")"
  echo "e2e: dc$dc mid-load /metrics scrape OK ($(wc -l < "$prom") series lines, $moves connections placed on another loop; $ratios)"
done
wait_load "pipelined checked load" 10
cat "$OUT_DIR/BENCH_tcp_loadgen.json"
echo "e2e: pipelined delta vs the committed baseline (non-gating)"
scripts/perf_delta.sh "$OUT_DIR/BENCH_tcp_loadgen.json" \
  bench/baselines/BENCH_tcp_loadgen.json || true

echo "e2e: checked serial load ($CLIENTS client threads x 2 connections per DC for ${DURATION_S}s)"
start_load "$OUT_DIR/loadgen_serial.log" \
  --threads "$CLIENTS" --connections 2 --duration-s "$DURATION_S" \
  --key-offset 100000000 --client-base 1 \
  --out "$OUT_DIR/BENCH_tcp_loadgen_serial.json"
wait_load "checked serial load"
cat "$OUT_DIR/BENCH_tcp_loadgen_serial.json"

echo "e2e: high-connection leg — 128 pools/DC = $((DCS * 128 * PARTS)) client sockets, pipelined $CLIENTS sessions x depth $PIPELINE, 4s"
start_load "$OUT_DIR/loadgen_highconn.log" \
  --threads "$CLIENTS" --connections 128 --pipeline "$PIPELINE" \
  --duration-s 4 --key-offset 500000000 --client-base 800000 \
  --out "$OUT_DIR/BENCH_tcp_loadgen_highconn.json"
wait_load "high-connection leg"
cat "$OUT_DIR/BENCH_tcp_loadgen_highconn.json"
hc_failures="$(sed -n 's/.*"failures":\([0-9]*\).*/\1/p' "$OUT_DIR/BENCH_tcp_loadgen_highconn.json")"
if [[ "$hc_failures" != "0" ]]; then
  echo "e2e: FAIL — high-connection leg reported $hc_failures op failures" >&2
  exit 11
fi
echo "e2e: high-connection leg passed — zero failures, history checked"

echo "e2e: tail-latency leg — zipfian theta=0.99 over $((1000000 * PARTS)) keys/DC, value sizes 8..1024B skewed, 5s"
start_load "$OUT_DIR/loadgen_tail.log" \
  --threads "$CLIENTS" --connections 8 --pipeline "$PIPELINE" \
  --duration-s 5 --key-dist zipfian --theta 0.99 \
  --keys-per-partition 1000000 --value-size 8 --value-size-max 1024 \
  --key-offset 400000000 --client-base 700000 \
  --out "$OUT_DIR/BENCH_tail_latency.json"
wait_load "tail-latency leg"
cat "$OUT_DIR/BENCH_tail_latency.json"
echo "e2e: tail-latency delta vs the committed baseline (non-gating)"
scripts/perf_delta.sh "$OUT_DIR/BENCH_tail_latency.json" \
  bench/baselines/BENCH_tail_latency.json || true

# reconnects=N from DC's latest stats dump; empty when it dumped none.
last_reconnects() {
  { grep "dc$1: stats" "$OUT_DIR/poccd_dc$1.log" || true; } | tail -n 1 \
    | sed -n 's/.*reconnects=\([0-9]*\).*/\1/p'
}
echo "e2e: signal leg — SIGUSR1 storm on every poccd during a pipelined load (4s)"
kill -USR2 "${PIDS[@]}" 2>/dev/null || true
sleep 0.3
PRE_RECONNECTS=()
for dc in $(seq 0 $((DCS - 1))); do
  PRE_RECONNECTS+=("$(last_reconnects "$dc")")
  if [[ -z "${PRE_RECONNECTS[$dc]}" ]]; then
    echo "e2e: FAIL — dc$dc never dumped stats on SIGUSR2" >&2
    exit 9
  fi
done
start_load "$OUT_DIR/loadgen_signal.log" \
  --threads "$CLIENTS" --connections 2 --pipeline "$PIPELINE" \
  --duration-s 4 --key-offset 200000000 --client-base 300000 \
  --out "$OUT_DIR/BENCH_tcp_loadgen_signal.json"
while kill -0 "$LOAD_PID" 2>/dev/null; do
  kill -USR1 "${PIDS[@]}" 2>/dev/null || true
  sleep 0.02
done
wait_load "checked load under the signal storm" 9
cat "$OUT_DIR/BENCH_tcp_loadgen_signal.json"
kill -USR2 "${PIDS[@]}" 2>/dev/null || true
sleep 0.3
for dc in $(seq 0 $((DCS - 1))); do
  post="$(last_reconnects "$dc")"
  if [[ "$post" != "${PRE_RECONNECTS[$dc]}" ]]; then
    echo "e2e: FAIL — dc$dc reconnects went ${PRE_RECONNECTS[$dc]} -> ${post:-?} across the signal storm" >&2
    exit 9
  fi
done
client_reconnects="$(sed -n 's/.*"reconnects":\([0-9]*\).*/\1/p' "$OUT_DIR/BENCH_tcp_loadgen_signal.json")"
if [[ "$client_reconnects" != "0" ]]; then
  echo "e2e: FAIL — loadgen reported $client_reconnects client reconnects under the signal storm" >&2
  exit 9
fi
echo "e2e: signal leg passed — zero spurious reconnects (server and client) under the SIGUSR1 storm"

if [[ "$KILL_LEG" == "1" ]]; then
  echo "e2e: kill leg — disrupted load for 8s while dc$((DCS - 1)) is kill -9'd and restarted"
  start_load "$OUT_DIR/loadgen_kill.log" \
    --threads "$CLIENTS" --connections 2 --duration-s 8 --expect-disruption \
    --key-offset 300000000 --client-base 500000 \
    --out "$OUT_DIR/BENCH_tcp_loadgen_kill.json"
  sleep 2
  kill_restart $((DCS - 1))
  wait_load "load across the kill -9 + recovery (violation, or no work done)" 8
  cat "$OUT_DIR/BENCH_tcp_loadgen_kill.json"
  echo "e2e: kill leg passed — zero causal violations across crash + WAL replay + peer rejoin"
fi

check_alive
cluster_stop
check_transport_drops 12
echo "e2e: PASS"
