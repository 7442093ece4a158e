# Local 3-DC poccd cluster launcher, sourced by e2e_local_cluster.sh and
# chaos_soak.sh: config writing, process launch, /readyz waits, kill -9 +
# restart with a WAL-replay proof, the alive check, graceful shutdown and the
# failure cleanup trap. One poccd process per DC, PARTS partitions on THREADS
# workers each.
#
# The sourcing script sets, after sourcing and before cluster_start:
#   NAME                 log prefix
#   BUILD_DIR OUT_DIR    binaries; configs, logs, data dirs and artifacts
#   SYSTEM BASE_PORT     engine; every port derives from BASE_PORT
#   DURABLE=1            every poccd runs with --data-dir OUT_DIR/data_dcN
#   SERVER_ARGS=(...)    extra poccd arguments
#   PROXY_ARGS=(...)     non-empty: inter-DC links pass through one
#                        pocc_chaosproxy started with these arguments
# Ports: DC d listens on BASE_PORT+d and serves /metrics, /healthz and
# /readyz on BASE_PORT+40+d; the proxy route src -> dst listens on
# BASE_PORT+10+src*DCS+dst.

DCS=3
PARTS=2
THREADS=2
DURABLE=0
SERVER_ARGS=()
PROXY_ARGS=()
PIDS=()
PROXY_PID=""

node_port() { echo $((BASE_PORT + $1)); }
proxy_port() { echo $((BASE_PORT + 10 + $1 * DCS + $2)); }
metrics_port() { echo $((BASE_PORT + 40 + $1)); }

require_bins() {
  for bin in "$@"; do
    if [[ ! -x "$BUILD_DIR/$bin" ]]; then
      echo "$NAME: $BUILD_DIR/$bin not built" >&2
      exit 3
    fi
  done
}

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

# ready_wait DC ATTEMPTS: poll DC's /readyz every 0.1 s until it answers 200
# — WAL recovery complete, client gate open, every peer link connected
# (through the proxy, whose fault windows can hold a link down for a while).
ready_wait() {
  local dc=$1 attempts=$2
  for _ in $(seq 1 "$attempts"); do
    if http_get "$(metrics_port "$dc")" /readyz | head -n 1 | grep -q ' 200 '; then
      return 0
    fi
    sleep 0.1
  done
  echo "$NAME: dc$dc never answered 200 on /readyz" >&2
  return 1
}

# write_config FILE [SELF]: the cluster config. With SELF, every other DC's
# address is the proxy route SELF -> DC (DC SELF's server config).
write_config() {
  local file=$1 self=${2:-} dc addr
  {
    echo "dcs $DCS"
    echo "partitions $PARTS"
    echo "system $SYSTEM"
    echo "heartbeat_us 2000"
    echo "stabilization_us 10000"
    for dc in $(seq 0 $((DCS - 1))); do
      addr="127.0.0.1:$(node_port "$dc")"
      if [[ -n "$self" && "$dc" != "$self" ]]; then
        addr="127.0.0.1:$(proxy_port "$self" "$dc")"
      fi
      echo "node dc=$dc parts=0-$((PARTS - 1)) threads=$THREADS addr=$addr"
    done
  } > "$file"
}

# start_dc DC: launch DC's poccd, appending to its log.
start_dc() {
  local dc=$1 cfg="$CFG" args=()
  [[ ${#PROXY_ARGS[@]} -gt 0 ]] && cfg="$OUT_DIR/cluster_dc$dc.cfg"
  [[ "$DURABLE" == 1 ]] && args+=(--data-dir "$OUT_DIR/data_dc$dc")
  "$BUILD_DIR/poccd" --config "$cfg" --dc "$dc" \
    ${args[@]+"${args[@]}"} ${SERVER_ARGS[@]+"${SERVER_ARGS[@]}"} \
    --metrics-addr "127.0.0.1:$(metrics_port "$dc")" \
    >> "$OUT_DIR/poccd_dc$dc.log" 2>&1 &
  PIDS[dc]=$!
}

# Write the configs (CFG is the client view: real addresses everywhere),
# start the proxy if any, launch every DC and wait until all are ready.
cluster_start() {
  mkdir -p "$OUT_DIR"
  CFG="$OUT_DIR/cluster.cfg"
  write_config "$CFG"
  echo "$NAME: cluster config:" && cat "$CFG"
  trap cluster_cleanup EXIT
  if [[ ${#PROXY_ARGS[@]} -gt 0 ]]; then
    local routes=() src dst
    for src in $(seq 0 $((DCS - 1))); do
      write_config "$OUT_DIR/cluster_dc$src.cfg" "$src"
      for dst in $(seq 0 $((DCS - 1))); do
        [[ "$src" == "$dst" ]] && continue
        routes+=(--route "$(proxy_port "$src" "$dst"):127.0.0.1:$(node_port "$dst"):$src:$dst")
      done
    done
    echo "$NAME: launching pocc_chaosproxy (${#routes[@]} route args) ${PROXY_ARGS[*]}"
    "$BUILD_DIR/pocc_chaosproxy" --dcs "$DCS" --parts "$PARTS" \
      "${PROXY_ARGS[@]}" "${routes[@]}" > "$OUT_DIR/chaosproxy.log" 2>&1 &
    PROXY_PID=$!
  fi
  echo "$NAME: launching $DCS poccd processes (one per DC, $PARTS partitions x $THREADS workers each)"
  for dc in $(seq 0 $((DCS - 1))); do
    : > "$OUT_DIR/poccd_dc$dc.log"
    start_dc "$dc"
  done
  echo "$NAME: waiting for every DC to answer 200 on /readyz"
  for dc in $(seq 0 $((DCS - 1))); do
    ready_wait "$dc" 200 || exit 4
  done
  if [[ -n "$PROXY_PID" ]]; then
    if ! kill -0 "$PROXY_PID" 2>/dev/null; then
      echo "$NAME: chaosproxy died at startup" >&2
      exit 4
    fi
    grep "plan_hash" "$OUT_DIR/chaosproxy.log" || true
  fi
}

# kill_restart DC: kill -9 DC's poccd, restart it on its data dir, wait until
# it is ready again (readiness implies the WAL replay ran: it happens in the
# host's constructor), and prove from /metrics that the replay restored
# versions into some partition. Also prints, ungated, whether each
# partition's recovery gate opened at its deadline (1) rather than on its
# peers' RecoveryDones (0). Exits 7 on failure.
kill_restart() {
  local dc=$1 pid=${PIDS[$1]} metrics replay
  echo "$NAME: kill -9 poccd dc$dc (pid $pid) mid-load"
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  sleep 1
  echo "$NAME: restarting dc$dc on its data dir (WAL replay + peer recovery)"
  start_dc "$dc"
  ready_wait "$dc" 300 || exit 7
  metrics="$(http_get "$(metrics_port "$dc")" /metrics | http_body || true)"
  replay="$(grep '^pocc_wal_replay_log_versions{' <<< "$metrics" || true)"
  echo "$replay"
  grep '^pocc_engine_recovery_gate_expired{' <<< "$metrics" || true
  if ! awk '$NF > 0 { found = 1 } END { exit !found }' <<< "$replay"; then
    echo "$NAME: FAIL — restarted dc$dc replayed zero versions from its WAL" >&2
    exit 7
  fi
}

# start_load LOG ARGS...: pocc_loadgen against the cluster in the background.
start_load() {
  LOAD_LOG=$1
  shift
  "$BUILD_DIR/pocc_loadgen" --config "$CFG" "$@" > "$LOAD_LOG" 2>&1 &
  LOAD_PID=$!
}

# wait_load WHAT [CODE]: wait for the background loadgen. On failure report
# its real exit status and log tail, then exit CODE (default: that status).
wait_load() {
  local what=$1 code=${2:-} status=0
  wait "$LOAD_PID" || status=$?
  if [[ $status -ne 0 ]]; then
    echo "$NAME: FAIL — $what: loadgen exited $status (1=violation or incomplete history, 2=op failures, 3=deadline budget, 4=usage)" >&2
    tail -n 30 "$LOAD_LOG" >&2 || true
    exit "${code:-$status}"
  fi
}

# Exits 5 unless every poccd (and the proxy) is still running.
check_alive() {
  echo "$NAME: verifying every process survived the run"
  for pid in "${PIDS[@]}" $PROXY_PID; do
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "$NAME: a process died during the run" >&2
      exit 5
    fi
  done
}

# Graceful SIGTERM shutdown, then each poccd's exit-stats line.
cluster_stop() {
  echo "$NAME: graceful shutdown"
  kill -TERM "${PIDS[@]}" $PROXY_PID 2>/dev/null || true
  for pid in "${PIDS[@]}" $PROXY_PID; do
    wait "$pid" || true
  done
  PIDS=()
  PROXY_PID=""
  echo "$NAME: exit stats (per process):"
  grep -h "exiting" "$OUT_DIR"/poccd_dc*.log || true
}

# check_transport_drops CODE: after cluster_stop, exit CODE unless every DC
# left an exit-stats line and none reports a frame its transport refused
# (transport_send_overflows or transport_down_buffer_drops nonzero). The
# outbox is the only buffer behind a replication link, so a refusal is a
# hole in the lossless FIFO channel the protocol assumes.
check_transport_drops() {
  local code=$1 lines bad
  lines="$(grep -h "exiting" "$OUT_DIR"/poccd_dc*.log || true)"
  if [[ "$(grep -c . <<< "$lines")" -lt "$DCS" ]]; then
    echo "$NAME: FAIL — a poccd left no exit-stats line" >&2
    exit "$code"
  fi
  bad="$(grep -oE "transport_(send_overflows|down_buffer_drops)=[1-9][0-9]*" \
    <<< "$lines" || true)"
  if [[ -n "$bad" ]]; then
    echo "$NAME: FAIL — a poccd transport refused frames:" $bad >&2
    exit "$code"
  fi
  echo "$NAME: no transport refused a frame"
}

# EXIT trap: kill whatever still runs; on failure show the logs' tails.
cluster_cleanup() {
  local status=$? logs=("$OUT_DIR"/poccd_dc*.log)
  kill ${PIDS[@]+"${PIDS[@]}"} $PROXY_PID 2>/dev/null || true
  wait 2>/dev/null || true
  if [[ $status -ne 0 ]]; then
    [[ -f "$OUT_DIR/chaosproxy.log" ]] && logs+=("$OUT_DIR/chaosproxy.log")
    echo "$NAME: FAILED (exit $status) — logs:" >&2
    tail -n 20 "${logs[@]}" >&2 || true
  fi
  exit "$status"
}
