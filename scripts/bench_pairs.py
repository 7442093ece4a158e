#!/usr/bin/env python3
"""Paired comparison of two source trees on the repository benchmark.

    scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload hot-getput \\
        --pairs 10 [--seconds 6] [--seeds 1,2,3]

Runs `benchmark/run.py --trace 0` alternately in PARENT_DIR and CHANGE_DIR
(each tree builds its own `.bench_build/`), N pairs, the side that goes
first alternating from pair to pair so both see the same drift of the host.
Pair i runs both sides with seed SEEDS[i mod len(SEEDS)]. For every
end-to-end metric that CHANGE_DIR's BENCHMARK.json declares it prints each
side's median, the parent's quartiles, how many pairs the change won, and a
verdict:

  better        the change won at least 9 in 10 pairs and its median beats
                the parent's by more than the parent's interquartile range
  worse         the change's median is worse than the parent's by more than
                the metric's bound
  within noise  the medians differ by no more than the parent's IQR
  unresolved    anything else: the gap exceeds the parent's IQR, but the
                pair wins do not carry it

"gain" is the change's median relative to the parent's, signed so that
positive is better. It also prints each side's correct runs and
failed-operation share. The last line of standard output is one JSON
object with everything above.
Exits 1 when a run was not correct or could not be started, 0 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WIN_SHARE = 0.9


def log(msg):
    print("pairs: " + msg, file=sys.stderr, flush=True)


def run_once(tree, workload, seed, seconds):
    """One benchmark run in `tree`; returns its final JSON object."""
    cmd = [sys.executable, os.path.join("benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError("%s: run printed no result (exit %d)"
                           % (tree, proc.returncode))
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["wall_s"] = time.monotonic() - t0
    return result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Classify one metric from its per-pair values (same order)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)  # > 0: the change is better
    rel = gain / abs(p_med) if p_med else 0.0
    if -rel > bound:
        word = "worse"
    elif gain > iqr and wins >= WIN_SHARE * len(parent):
        word = "better"
    elif abs(c_med - p_med) <= iqr:
        word = "within noise"
    else:
        word = "unresolved"
    return {
        "parent_median": p_med, "parent_q1": q1, "parent_q3": q3,
        "change_median": c_med, "change_vs_parent": rel, "wins": wins,
        "pairs": len(parent), "bound": bound, "verdict": word,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--seeds", default="1",
                    help="comma-separated seeds, cycled over the pairs")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s]
    trees = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)["end_to_end"]

    runs = {"parent": [], "change": []}
    ok = True
    try:
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                r = run_once(trees[side], args.workload, seed, args.seconds)
                runs[side].append(r)
                ops = r["metrics"].get("ops_per_s", {}).get("value")
                log("pair %d/%d seed %d %s: correct=%s failed=%d ops_per_s=%s"
                    " (%.0f s)" % (i + 1, args.pairs, seed, side, r["correct"],
                                   r["failed"], ops, r["wall_s"]))
                ok = ok and r["correct"] and r["exit"] == 0
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1

    metrics = {}
    for m in spec:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        metrics[name] = verdict(parent, change, m["better"], m["bound"])
        metrics[name]["unit"] = m["unit"]
        metrics[name]["better"] = m["better"]

    sides = {}
    for side, rs in runs.items():
        attempted = sum(r["attempted"] for r in rs)
        failed = sum(r["failed"] for r in rs)
        sides[side] = {"runs": len(rs),
                       "correct": sum(1 for r in rs if r["correct"]),
                       "failed_share": failed / attempted if attempted else 0.0}

    print("%s: %d pairs, seeds %s, --seconds %g"
          % (args.workload, args.pairs, args.seeds, args.seconds))
    for side, s in sides.items():
        print("  %-6s %d/%d runs correct, failed ops %.6f"
              % (side, s["correct"], s["runs"], s["failed_share"]))
    print("  %-18s %12s %25s %12s %7s %6s  %s"
          % ("metric", "parent", "[q1 - q3]", "change", "gain", "wins",
             "verdict"))
    for name, v in metrics.items():
        print("  %-18s %12.4g [%10.4g - %10.4g] %12.4g %+6.1f%% %3d/%-2d  %s"
              % (name, v["parent_median"], v["parent_q1"], v["parent_q3"],
                 v["change_median"], 100 * v["change_vs_parent"], v["wins"],
                 v["pairs"], v["verdict"]))
    print(json.dumps({"workload": args.workload, "pairs": args.pairs,
                      "seeds": seeds, "seconds": args.seconds, "sides": sides,
                      "metrics": metrics,
                      "runs": {k: [r["metrics"] for r in v]
                               for k, v in runs.items()}},
                     sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
