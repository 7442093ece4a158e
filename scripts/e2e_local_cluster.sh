#!/usr/bin/env bash
# End-to-end deployment check: launch a real 3-DC poccd cluster on localhost
# — ONE multi-partition process per DC (2 partitions on E2E_THREADS workers
# each, the group topology) — run the causal-consistency smoke, a checked
# serial load, and a pipelined high-connection load through pocc_loadgen,
# then tear everything down. Non-zero exit on any failure; server logs and
# the BENCH_tcp_loadgen.json artifact (the pipelined leg — the benchmark of
# record) are left in OUT_DIR (CI uploads them). When a committed baseline
# exists, the throughput/latency delta vs
# bench/baselines/BENCH_tcp_loadgen.json is printed (non-gating unless
# E2E_REQUIRE_SPEEDUP=1).
#
# With E2E_SIGNAL_LEG=1 (default) a chaos leg peppers every poccd with
# SIGUSR1 (whose no-op handler deliberately lacks SA_RESTART, so loop
# syscalls really take EINTR) throughout a pipelined load. poccd masks
# SIGUSR1 on its main thread, so each pepper lands on an event-loop thread.
# The leg brackets the storm with SIGUSR2 stats dumps and fails on ANY new
# server-side reconnect, plus asserts zero client-side reconnects in the
# loadgen JSON — EINTR must never tear a connection.
#
# With E2E_KILL_LEG=1 every poccd runs durable (--data-dir under OUT_DIR) and
# a crash-recovery leg follows the checked load: a loadgen runs in the
# background with --expect-disruption while one DC's poccd is kill -9'd
# mid-load and restarted on the same data dir — it must replay its WAL,
# rebuild the missed replication suffix from its peers, and rejoin; the
# disrupted load must finish with zero consistency violations.
#
# A tail-latency leg (E2E_TAIL_LEG=1, default) drives the paper's zipfian
# skew (theta 0.99) over a millions-of-keys keyspace with skewed value sizes
# and records p50/p99/p999 to BENCH_tail_latency.json; the delta vs
# bench/baselines/BENCH_tail_latency.json is printed non-gating.
#
# Every poccd serves /metrics + /healthz + /readyz on BASE_PORT+40+dc;
# startup and restart waits poll /readyz (recovery complete AND all peer
# links up) instead of just probing the listen socket, and a mid-load scrape
# of /metrics is saved to OUT_DIR as the observability artifact.
#
# A high-connection leg (E2E_HIGHCONN_LEG=1, default) raises the fd soft
# limit to the hard limit and drives a pipelined checked load over
# E2E_HIGHCONN_CONNECTIONS connection pools per DC (each pool holds one
# socket per partition): thousands of concurrent sockets through the
# sharded epoll loops with full history checking.
#
# usage: scripts/e2e_local_cluster.sh [BUILD_DIR] [OUT_DIR]
# env:   E2E_BASE_PORT (7450)  E2E_SYSTEM (pocc)  E2E_DURATION_S (5)
#        E2E_CLIENTS (8)  E2E_CONNECTIONS (2)  E2E_THREADS (2)
#        E2E_PIPELINE (4)  E2E_PIPE_CONNECTIONS (4x E2E_CONNECTIONS)
#        E2E_REQUIRE_SPEEDUP (0)  E2E_KILL_LEG (0)  E2E_KILL_DURATION_S (8)
#        E2E_SIGNAL_LEG (1)  E2E_SIGNAL_DURATION_S (4)
#        E2E_TAIL_LEG (1)  E2E_TAIL_DURATION_S (5)  E2E_TAIL_KEYS (1000000)
#        E2E_TAIL_VMAX (1024)
#        E2E_HIGHCONN_LEG (1)  E2E_HIGHCONN_CONNECTIONS (128)
#        E2E_HIGHCONN_DURATION_S (4)
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-e2e-out}"
BASE_PORT="${E2E_BASE_PORT:-7450}"
SYSTEM="${E2E_SYSTEM:-pocc}"
DURATION_S="${E2E_DURATION_S:-5}"
CLIENTS="${E2E_CLIENTS:-8}"
CONNECTIONS="${E2E_CONNECTIONS:-2}"
THREADS="${E2E_THREADS:-2}"
PIPELINE="${E2E_PIPELINE:-4}"
PIPE_CONNECTIONS="${E2E_PIPE_CONNECTIONS:-$((CONNECTIONS * 4))}"
REQUIRE_SPEEDUP="${E2E_REQUIRE_SPEEDUP:-0}"
KILL_LEG="${E2E_KILL_LEG:-0}"
KILL_DURATION_S="${E2E_KILL_DURATION_S:-8}"
SIGNAL_LEG="${E2E_SIGNAL_LEG:-1}"
SIGNAL_DURATION_S="${E2E_SIGNAL_DURATION_S:-4}"
TAIL_LEG="${E2E_TAIL_LEG:-1}"
TAIL_DURATION_S="${E2E_TAIL_DURATION_S:-5}"
TAIL_KEYS="${E2E_TAIL_KEYS:-1000000}"
TAIL_VMAX="${E2E_TAIL_VMAX:-1024}"
HIGHCONN_LEG="${E2E_HIGHCONN_LEG:-1}"
HIGHCONN_CONNECTIONS="${E2E_HIGHCONN_CONNECTIONS:-128}"
HIGHCONN_DURATION_S="${E2E_HIGHCONN_DURATION_S:-4}"
DCS=3
PARTS=2
METRICS_BASE=$((BASE_PORT + 40))

# Raise the fd soft limit to the hard limit (best effort): the
# high-connection leg opens thousands of client sockets, and each poccd
# carries its share of inbound ones.
HARD_FD="$(ulimit -Hn)"
if [[ "$HARD_FD" != "unlimited" ]]; then
  ulimit -n "$HARD_FD" 2>/dev/null || true
fi
echo "e2e: fd limit $(ulimit -n) (hard $HARD_FD)"

metrics_port() { echo $((METRICS_BASE + $1)); }

# GET http://127.0.0.1:PORT/PATH over /dev/tcp; prints the full response
# (status line + headers + body); rc != 0 when the connect fails. Runs in a
# subshell so a refused connect doesn't kill the script under `set -e`.
http_get() {
  local port=$1 path=$2
  (
    exec 3<>"/dev/tcp/127.0.0.1/$port" || exit 1
    printf 'GET %s HTTP/1.0\r\n\r\n' "$path" >&3
    cat <&3
  ) 2>/dev/null
}

http_body() { tr -d '\r' | sed '1,/^$/d'; }

# Poll /readyz until it answers 200 — the server-side readiness predicate
# (WAL recovery complete, client gate open, every peer link connected) —
# instead of merely probing that the listen socket accepts.
ready_wait() {
  local port=$1 name=$2 attempts=${3:-150}
  for attempt in $(seq 1 "$attempts"); do
    if http_get "$port" /readyz | head -n 1 | grep -q ' 200 '; then
      return 0
    fi
    sleep 0.1
  done
  echo "e2e: $name never answered 200 on /readyz" >&2
  return 1
}

# The kill leg needs durable state to recover from; without it poccd runs in
# its default non-durable mode (the pre-WAL deployment).
DATA_ARGS=()
data_args_for_dc() {
  DATA_ARGS=()
  if [[ "$KILL_LEG" == "1" ]]; then
    DATA_ARGS=(--data-dir "$OUT_DIR/data_dc$1")
  fi
}

for bin in poccd pocc_loadgen; do
  if [[ ! -x "$BUILD_DIR/$bin" ]]; then
    echo "e2e: $BUILD_DIR/$bin not built" >&2
    exit 3
  fi
done

mkdir -p "$OUT_DIR"
CFG="$OUT_DIR/cluster.cfg"
{
  echo "dcs $DCS"
  echo "partitions $PARTS"
  echo "system $SYSTEM"
  echo "heartbeat_us 2000"
  echo "stabilization_us 10000"
  port="$BASE_PORT"
  for dc in $(seq 0 $((DCS - 1))); do
    echo "node dc=$dc parts=0-$((PARTS - 1)) threads=$THREADS addr=127.0.0.1:$port"
    port=$((port + 1))
  done
} > "$CFG"
echo "e2e: cluster config:" && cat "$CFG"

PIDS=()
cleanup() {
  local status=$?
  for pid in "${PIDS[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  if [[ $status -ne 0 ]]; then
    echo "e2e: FAILED (exit $status) — server logs:" >&2
    tail -n 20 "$OUT_DIR"/poccd_*.log >&2 || true
  fi
  exit "$status"
}
trap cleanup EXIT

echo "e2e: launching $DCS poccd processes (one per DC, $PARTS partitions x $THREADS workers each)"
for dc in $(seq 0 $((DCS - 1))); do
  data_args_for_dc "$dc"
  "$BUILD_DIR/poccd" --config "$CFG" --dc "$dc" ${DATA_ARGS[@]+"${DATA_ARGS[@]}"} \
    --metrics-addr "127.0.0.1:$(metrics_port "$dc")" \
    > "$OUT_DIR/poccd_dc${dc}.log" 2>&1 &
  PIDS+=($!)
done

echo "e2e: waiting for every DC to answer 200 on /readyz"
for dc in $(seq 0 $((DCS - 1))); do
  ready_wait "$(metrics_port "$dc")" "dc$dc" || exit 4
done

echo "e2e: causal smoke (read-your-writes + WC-DEP chain across DCs)"
"$BUILD_DIR/pocc_loadgen" --config "$CFG" --mode smoke --client-base 100000

# Each load leg gets a disjoint keyspace (--key-offset) and client-id range
# (--client-base): reading a version left by an earlier leg's clients would
# (correctly) fail the leg's full history replay against a live cluster.
echo "e2e: pipelined checked load ($CLIENTS sessions x pipeline $PIPELINE over $PIPE_CONNECTIONS connections per DC for ${DURATION_S}s)"
"$BUILD_DIR/pocc_loadgen" --config "$CFG" --mode load \
  --threads "$CLIENTS" --connections "$PIPE_CONNECTIONS" \
  --pipeline "$PIPELINE" --duration-s "$DURATION_S" \
  --out "$OUT_DIR/BENCH_tcp_loadgen.json" --client-base 200000 \
  > "$OUT_DIR/loadgen_pipelined.log" 2>&1 &
PIPE_LOAD_PID=$!

# Scrape /metrics from every DC mid-load — the observability artifact CI
# uploads — and assert the server-side op-latency histograms are live.
sleep 2
for dc in $(seq 0 $((DCS - 1))); do
  http_get "$(metrics_port "$dc")" /metrics | http_body \
    > "$OUT_DIR/metrics_dc${dc}.prom" || true
done
if ! grep -q '^pocc_server_op_us_bucket{op="get",le="' "$OUT_DIR/metrics_dc0.prom"; then
  echo "e2e: FAIL — mid-load /metrics scrape is missing pocc_server_op_us" >&2
  exit 10
fi
if ! grep -q '^pocc_transport_frames_in_total ' "$OUT_DIR/metrics_dc0.prom"; then
  echo "e2e: FAIL — mid-load /metrics scrape is missing transport counters" >&2
  exit 10
fi
echo "e2e: mid-load /metrics scrape OK ($(wc -l < "$OUT_DIR/metrics_dc0.prom") series lines from dc0)"

if ! wait "$PIPE_LOAD_PID"; then
  echo "e2e: FAIL — pipelined checked load failed" >&2
  tail -n 30 "$OUT_DIR/loadgen_pipelined.log" >&2 || true
  exit 10
fi
cat "$OUT_DIR/BENCH_tcp_loadgen.json"

echo "e2e: checked serial load ($CLIENTS client threads x $CONNECTIONS connections per DC for ${DURATION_S}s)"
"$BUILD_DIR/pocc_loadgen" --config "$CFG" --mode load \
  --threads "$CLIENTS" --connections "$CONNECTIONS" \
  --duration-s "$DURATION_S" --key-offset 100000000 \
  --out "$OUT_DIR/BENCH_tcp_loadgen_serial.json" --client-base 1
cat "$OUT_DIR/BENCH_tcp_loadgen_serial.json"

BASELINE="bench/baselines/BENCH_tcp_loadgen.json"
if [[ -f "$BASELINE" ]]; then
  echo "e2e: pipelined throughput/latency delta vs the committed baseline"
  scripts/perf_delta.sh "$OUT_DIR/BENCH_tcp_loadgen.json" "$BASELINE" || true
  if [[ "$REQUIRE_SPEEDUP" == "1" ]]; then
    cur="$(sed -n 's/.*"ops_per_sec":\([0-9][0-9.]*\).*/\1/p' "$OUT_DIR/BENCH_tcp_loadgen.json")"
    base="$(sed -n 's/.*"ops_per_sec":\([0-9][0-9.]*\).*/\1/p' "$BASELINE")"
    if ! awk -v c="$cur" -v b="$base" 'BEGIN { exit !(c >= b) }'; then
      echo "e2e: FAIL — pipelined throughput ($cur ops/s) regressed below the baseline ($base ops/s)" >&2
      exit 6
    fi
    echo "e2e: pipelined throughput holds the baseline ($cur >= $base ops/s)"
  fi
fi

if [[ "$HIGHCONN_LEG" == "1" ]]; then
  # One connection pool = one socket per partition per DC, so the cluster
  # carries DCS * HIGHCONN_CONNECTIONS * PARTS client sockets at once.
  HIGHCONN_SOCKETS=$((DCS * HIGHCONN_CONNECTIONS * PARTS))
  echo "e2e: high-connection leg — $HIGHCONN_CONNECTIONS pools/DC = $HIGHCONN_SOCKETS client sockets, pipelined $CLIENTS sessions x depth $PIPELINE, ${HIGHCONN_DURATION_S}s"
  "$BUILD_DIR/pocc_loadgen" --config "$CFG" --mode load \
    --threads "$CLIENTS" --connections "$HIGHCONN_CONNECTIONS" \
    --pipeline "$PIPELINE" --duration-s "$HIGHCONN_DURATION_S" \
    --key-offset 500000000 \
    --out "$OUT_DIR/BENCH_tcp_loadgen_highconn.json" --client-base 800000
  cat "$OUT_DIR/BENCH_tcp_loadgen_highconn.json"
  hc_failures="$(sed -n 's/.*"failures":\([0-9]*\).*/\1/p' "$OUT_DIR/BENCH_tcp_loadgen_highconn.json")"
  if [[ "$hc_failures" != "0" ]]; then
    echo "e2e: FAIL — high-connection leg reported $hc_failures op failures" >&2
    exit 11
  fi
  echo "e2e: high-connection leg passed — $HIGHCONN_SOCKETS sockets, zero failures, history checked"
fi

if [[ "$TAIL_LEG" == "1" ]]; then
  echo "e2e: tail-latency leg — zipfian theta=0.99 over $((TAIL_KEYS * PARTS)) keys/DC, value sizes 8..${TAIL_VMAX}B skewed, ${TAIL_DURATION_S}s"
  "$BUILD_DIR/pocc_loadgen" --config "$CFG" --mode load \
    --threads "$CLIENTS" --connections "$PIPE_CONNECTIONS" \
    --pipeline "$PIPELINE" --duration-s "$TAIL_DURATION_S" \
    --key-dist zipfian --theta 0.99 --keys-per-partition "$TAIL_KEYS" \
    --value-size 8 --value-size-max "$TAIL_VMAX" \
    --key-offset 400000000 \
    --out "$OUT_DIR/BENCH_tail_latency.json" --client-base 700000
  cat "$OUT_DIR/BENCH_tail_latency.json"
  TAIL_BASELINE="bench/baselines/BENCH_tail_latency.json"
  if [[ -f "$TAIL_BASELINE" ]]; then
    echo "e2e: tail-latency delta vs the committed baseline (non-gating)"
    scripts/perf_delta.sh "$OUT_DIR/BENCH_tail_latency.json" "$TAIL_BASELINE" || true
  fi
fi

if [[ "$SIGNAL_LEG" == "1" ]]; then
  echo "e2e: signal leg — SIGUSR1 storm on every poccd during a pipelined load (${SIGNAL_DURATION_S}s)"
  # Bracket the storm with SIGUSR2 stats dumps: the exit line alone cannot
  # distinguish storm-induced reconnects from benign startup dial races.
  for pid in "${PIDS[@]}"; do kill -USR2 "$pid" 2>/dev/null || true; done
  sleep 0.3
  PRE_RECONNECTS=()
  for dc in $(seq 0 $((DCS - 1))); do
    pre="$(grep "dc${dc}: stats" "$OUT_DIR/poccd_dc${dc}.log" | tail -n 1 \
      | sed -n 's/.*reconnects=\([0-9]*\).*/\1/p')"
    if [[ -z "$pre" ]]; then
      echo "e2e: FAIL — dc$dc never dumped stats on SIGUSR2" >&2
      exit 9
    fi
    PRE_RECONNECTS+=("$pre")
  done

  "$BUILD_DIR/pocc_loadgen" --config "$CFG" --mode load \
    --threads "$CLIENTS" --connections "$CONNECTIONS" \
    --pipeline "$PIPELINE" --duration-s "$SIGNAL_DURATION_S" \
    --key-offset 200000000 \
    --out "$OUT_DIR/BENCH_tcp_loadgen_signal.json" --client-base 300000 \
    > "$OUT_DIR/loadgen_signal.log" 2>&1 &
  SIG_LOAD_PID=$!
  while kill -0 "$SIG_LOAD_PID" 2>/dev/null; do
    for pid in "${PIDS[@]}"; do kill -USR1 "$pid" 2>/dev/null || true; done
    sleep 0.02
  done
  if ! wait "$SIG_LOAD_PID"; then
    echo "e2e: FAIL — checked load under the signal storm reported a violation" >&2
    tail -n 30 "$OUT_DIR/loadgen_signal.log" >&2 || true
    exit 9
  fi
  cat "$OUT_DIR/BENCH_tcp_loadgen_signal.json"

  for pid in "${PIDS[@]}"; do kill -USR2 "$pid" 2>/dev/null || true; done
  sleep 0.3
  for dc in $(seq 0 $((DCS - 1))); do
    post="$(grep "dc${dc}: stats" "$OUT_DIR/poccd_dc${dc}.log" | tail -n 1 \
      | sed -n 's/.*reconnects=\([0-9]*\).*/\1/p')"
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
fi

if [[ "$KILL_LEG" == "1" ]]; then
  VICTIM_DC=$((DCS - 1))
  echo "e2e: kill leg — disrupted load for ${KILL_DURATION_S}s while dc$VICTIM_DC is kill -9'd and restarted"
  "$BUILD_DIR/pocc_loadgen" --config "$CFG" --mode load \
    --threads "$CLIENTS" --connections "$CONNECTIONS" \
    --duration-s "$KILL_DURATION_S" --expect-disruption \
    --key-offset 300000000 \
    --out "$OUT_DIR/BENCH_tcp_loadgen_kill.json" --client-base 500000 \
    > "$OUT_DIR/loadgen_kill.log" 2>&1 &
  LOAD_PID=$!

  sleep 2
  VICTIM_PID="${PIDS[$VICTIM_DC]}"
  echo "e2e: kill -9 poccd dc$VICTIM_DC (pid $VICTIM_PID) mid-load"
  kill -9 "$VICTIM_PID" 2>/dev/null || true
  wait "$VICTIM_PID" 2>/dev/null || true

  sleep 1
  echo "e2e: restarting dc$VICTIM_DC on its data dir (WAL replay + peer recovery)"
  data_args_for_dc "$VICTIM_DC"
  "$BUILD_DIR/poccd" --config "$CFG" --dc "$VICTIM_DC" "${DATA_ARGS[@]}" \
    --metrics-addr "127.0.0.1:$(metrics_port "$VICTIM_DC")" \
    >> "$OUT_DIR/poccd_dc${VICTIM_DC}.log" 2>&1 &
  PIDS[$VICTIM_DC]=$!

  # /readyz only answers 200 once the WAL replay finished, the parked client
  # gate reopened AND every peer link re-dialed — the full rejoin, not just a
  # listening socket.
  ready_wait "$(metrics_port "$VICTIM_DC")" "restarted dc$VICTIM_DC" 150 || exit 7

  # The first launch also prints PARTS "recovered part" lines (empty dir), so
  # the restart is proven by a second batch — and readiness can precede the
  # main thread printing them, hence the poll.
  for attempt in $(seq 1 50); do
    lines="$(grep -c "recovered part" "$OUT_DIR/poccd_dc${VICTIM_DC}.log" || true)"
    [[ "$lines" -ge $((2 * PARTS)) ]] && break
    if [[ $attempt -eq 50 ]]; then
      echo "e2e: FAIL — restarted dc$VICTIM_DC never reported a WAL replay" >&2
      exit 7
    fi
    sleep 0.1
  done
  grep "recovered part" "$OUT_DIR/poccd_dc${VICTIM_DC}.log" | tail -n "$PARTS"
  if ! grep "recovered part" "$OUT_DIR/poccd_dc${VICTIM_DC}.log" | tail -n "$PARTS" \
      | grep -qv "log_versions=0 "; then
    echo "e2e: FAIL — restarted dc$VICTIM_DC replayed zero versions" >&2
    exit 7
  fi

  if ! wait "$LOAD_PID"; then
    echo "e2e: FAIL — load across the kill -9 + recovery reported a violation (or completed no work)" >&2
    tail -n 30 "$OUT_DIR/loadgen_kill.log" >&2 || true
    exit 8
  fi
  cat "$OUT_DIR/BENCH_tcp_loadgen_kill.json"
  echo "e2e: kill leg passed — zero causal violations across crash + WAL replay + peer rejoin"
fi

echo "e2e: verifying every poccd survived the run"
for pid in "${PIDS[@]}"; do
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "e2e: a poccd process died during the run" >&2
    exit 5
  fi
done

echo "e2e: graceful shutdown"
for pid in "${PIDS[@]}"; do
  kill -TERM "$pid" 2>/dev/null || true
done
for pid in "${PIDS[@]}"; do
  wait "$pid" || true
done
PIDS=()
echo "e2e: aggregated exit stats (per process):"
grep -h "exiting" "$OUT_DIR"/poccd_dc*.log || true
echo "e2e: PASS"
