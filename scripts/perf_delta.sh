#!/usr/bin/env bash
# Print the delta between a fresh bench JSON line and its committed baseline.
# Handles all artifact kinds:
#   * perf_smoke      (bench/baselines/BENCH_perf_smoke.json)   — simulator
#   * tcp_loadgen     (bench/baselines/BENCH_tcp_loadgen.json)  — e2e cluster
#   * recovery        (bench/baselines/BENCH_recovery.json)     — WAL replay
# Informational only — CI runs it non-gating so the perf trajectory is
# visible on every push without flaking on runner noise.
#
# usage: perf_delta.sh CURRENT.json [BASELINE.json]
set -euo pipefail

CURRENT="${1:?usage: perf_delta.sh CURRENT.json [BASELINE.json]}"

if [[ ! -f "$CURRENT" ]]; then
  echo "perf_delta: missing $CURRENT" >&2
  exit 1
fi

extract() { # file key -> numeric value (empty if absent)
  sed -n 's/.*"'"$2"'":\([0-9][0-9.]*\).*/\1/p' "$1"
}

# Key set AND default baseline depend on the bench that produced the line.
if grep -q '"bench":"tcp_loadgen"' "$CURRENT"; then
  BASELINE="${2:-bench/baselines/BENCH_tcp_loadgen.json}"
  KEYS="ops_per_sec get_p50_us get_p99_us get_p999_us put_p50_us put_p99_us put_p999_us failures"
  NOTE="(positive % = larger than baseline; ops_per_sec higher is better, latencies lower)"
elif grep -q '"bench":"recovery"' "$CURRENT"; then
  BASELINE="${2:-bench/baselines/BENCH_recovery.json}"
  KEYS="replay_1k_ms replay_10k_ms replay_50k_ms replay_50k_snap_ms replay_mb_per_sec"
  NOTE="(positive % = larger than baseline; replay_*_ms lower is better, mb_per_sec higher)"
else
  BASELINE="${2:-bench/baselines/BENCH_perf_smoke.json}"
  KEYS="sim_ops_per_sec events_per_sec wall_ms peak_rss_kb"
  NOTE="(positive % = larger than baseline; wall_ms/peak_rss_kb lower is better)"
fi

if [[ ! -f "$BASELINE" ]]; then
  echo "perf_delta: missing $BASELINE" >&2
  exit 1
fi

echo "perf delta vs committed baseline ($BASELINE)"
echo "$NOTE"
for key in $KEYS; do
  cur="$(extract "$CURRENT" "$key")"
  base="$(extract "$BASELINE" "$key")"
  if [[ -z "$cur" || -z "$base" ]]; then
    echo "  $key: missing from one of the files"
    continue
  fi
  awk -v c="$cur" -v b="$base" -v k="$key" 'BEGIN {
    d = (b > 0) ? (c - b) / b * 100 : 0
    printf "  %-18s current %14.1f   baseline %14.1f   %+7.1f%%\n", k, c, b, d
  }'
done
