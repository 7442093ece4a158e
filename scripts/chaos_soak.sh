#!/usr/bin/env bash
# Chaos soak across real process boundaries: a 3-DC poccd cluster
# (scripts/cluster.sh) whose inter-DC replication links all pass through
# pocc_chaosproxy — one route per DIRECTED DC pair, so the seed-deterministic
# fault schedule (2 ms delay, 1 ms jitter, 1% loss-stalls, reorder, timed
# full/asymmetric partitions) hits the actual wire between processes. Each
# poccd reads its own config, in which every peer's address is the proxy
# route (self -> peer); clients use the real addresses, so client resilience
# is exercised by the kill leg and the servers' bounded admission, not by the
# proxy. Servers run durable with --max-inbox 4096. The load runs through
# pocc_loadgen --resilient (every op has a 15 s deadline, idempotent retries,
# backoff and failover); 3 s in, one DC is kill -9'd and restarted on its data
# dir. Pass = zero causal violations, a clean replay, at most 5% of the ops
# past their deadline, every process alive at the end, and no poccd exit-stats
# line reporting a frame its transport refused.
#
# usage: scripts/chaos_soak.sh [BUILD_DIR] [OUT_DIR]
# env:   SOAK_SEED (1)  SOAK_DURATION_S (20)
# exit:  0 pass; 3 binary missing; 4 a DC or the proxy never came up;
#        5 a process died; 7 restart not ready or no WAL replay; 8 the load
#        failed (its loadgen status is printed); 12 a poccd exit-stats line
#        reports nonzero transport_send_overflows or
#        transport_down_buffer_drops
set -euo pipefail

NAME=chaos_soak
BUILD_DIR="${1:-build}"
OUT_DIR="${2:-chaos-out}"
source "$(dirname "$0")/cluster.sh"
SEED="${SOAK_SEED:-1}"
DURATION_S="${SOAK_DURATION_S:-20}"
SYSTEM=pocc
BASE_PORT=7550
DURABLE=1
SERVER_ARGS=(--max-inbox 4096)
# One proxy carries all 6 routes; its fault schedule spans the whole soak so
# partitions recur seed-deterministically.
PROXY_ARGS=(--seed "$SEED" --duration-s "$DURATION_S"
  --delay-us 2000 --jitter-us 1000 --loss 0.01)

require_bins poccd pocc_loadgen pocc_chaosproxy
cluster_start

echo "chaos_soak: resilient checked load for ${DURATION_S}s under wire chaos"
start_load "$OUT_DIR/loadgen_soak.log" \
  --threads 8 --connections 2 --duration-s "$DURATION_S" \
  --resilient --expect-disruption \
  --op-deadline-us 15000000 --deadline-budget 0.05 \
  --client-base 1 --out "$OUT_DIR/BENCH_chaos_soak.json"
sleep 3
kill_restart $((DCS - 1))
wait_load "resilient load under wire chaos" 8
cat "$OUT_DIR/BENCH_chaos_soak.json"

check_alive
cluster_stop
check_transport_drops 12
echo "chaos_soak: retry/dedupe accounting must show the resilience layer worked:"
grep -hoE "host_(overloaded_replies|deduped_requests)=[0-9]+" \
  "$OUT_DIR"/poccd_dc*.log || true
echo "chaos_soak: PASS"
