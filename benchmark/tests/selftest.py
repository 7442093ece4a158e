#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 benchmark/tests/selftest.py

Checks, with short runs of every workload in BENCHMARK.json:
  1. --trace 0 and --trace 1 exit 0, are correct, and print every end-to-end
     (resp. per-layer) metric of BENCHMARK.json with its unit;
  2. a deliberately corrupted history (--corrupt-history) fails the run with
     exit 1 and "correct": false, so the correctness gate is not vacuous;
  3. a directory holding only BENCHMARK.json and the benchmark's files makes
     the benchmark exit non-zero without printing a result;
  4. no benchmark process and no data directory is left behind.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OUT = os.path.join(ROOT, ".bench_out")
SECONDS = "1.5"
FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run(cwd, *args):
    p = subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if p.returncode not in (0, 1):
        sys.stderr.write(p.stderr[-2000:])
    return p.returncode, result


def our_processes():
    """Pids whose command line names this checkout's run directory."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                cmd = f.read().decode(errors="replace")
        except OSError:
            continue
        if OUT in cmd and int(pid) != os.getpid():
            pids.append(pid)
    return pids


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            rc, res = run(ROOT, "--workload", name, "--seed", "7",
                          "--seconds", SECONDS, "--trace", trace)
            what = "%s --trace %s" % (name, trace)
            check(rc == 0 and res is not None and res["correct"] is True,
                  what + ": exit 0 and correct")
            if res is None:
                continue
            check(res["attempted"] >= 1 and res["failed"] == 0,
                  what + ": attempted %s, failed %s"
                  % (res["attempted"], res["failed"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(got == want, what + ": prints every metric with its unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in res["metrics"].values()),
                  what + ": every value is a number")

        rc, res = run(ROOT, "--workload", name, "--seed", "7",
                      "--seconds", SECONDS, "--trace", "0", "--corrupt-history")
        check(rc == 1 and res is not None and res["correct"] is False,
              name + ": a corrupted history fails the run")

    bare = os.path.join(OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, res = run(bare, "--workload", spec["workloads"][0]["name"],
                  "--seed", "1", "--seconds", SECONDS, "--trace", "0")
    check(rc != 0 and res is None,
          "benchmark files alone: non-zero exit (%d), no result" % rc)
    shutil.rmtree(bare, ignore_errors=True)

    check(not our_processes(), "no benchmark process left running")
    leftovers = [os.path.join(d, n) for d, dirs, _ in os.walk(OUT)
                 for n in dirs if n == "data"]
    check(not leftovers, "no data directory left behind")

    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
