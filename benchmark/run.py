#!/usr/bin/env python3
"""Repository benchmark: a real two-DC poccd deployment under pinned load.

    python3 benchmark/run.py --workload hot-getput --seed 1 --seconds 2 --trace 0

Builds poccd and the load driver (benchmark/driver.cpp) from source into
.bench_build/, launches a fresh cluster per set-up on free ports, measures for
--seconds after a warm-up, replays every session history through the causal
checker, tears everything down, and prints one JSON object as the last line
of standard output. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced rounds of the same workload, and reports the
per-layer metrics plus the tracing overhead. Exits 1 when the run's outputs
are not correct, 2 when the program cannot be built or started. See
benchmark/README.md.
"""
import argparse
import hashlib
import http.client
import json
import os
import platform
import queue
import signal
import socket
import statistics
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")

DCS = 2
PARTITIONS = 2
# An untraced run measures --seconds in the workload's "rounds", each on a
# fresh cluster, and reports every end-to-end metric (setup_s included) as
# the median over the rounds. Latency medians of single rounds spread +-30%
# (cluster to cluster and host noise); the median over many rounds does not.
# A traced run alternates TRACE_PAIRS untraced and traced rounds that split
# --seconds evenly, so both sides of the overhead are medians over rounds of
# the same length, each long enough for the once-a-second /metrics scrapes.
TRACE_PAIRS = 4

# Every workload: 2 DCs x 2 partitions, one poccd (one worker) per DC,
# 16 sessions per DC pipelined over one pool, one driver thread per DC
# (the sessions, op mix, keys and values are constants of driver.cpp).
WORKLOADS = {
    "hot-getput": {"pattern": "getput", "rate": 50000, "rounds": 30},
    "open-txput": {"pattern": "txput", "rate": 10000, "rounds": 15},
}



class BenchError(Exception):
    """The program could not be built, started or driven."""


def log(msg):
    print("bench: " + msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no program sources next to the benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    bins = {"poccd": os.path.join(BUILD, "pocc", "poccd"),
            "driver": os.path.join(BUILD, "pocc_bench")}
    for path in bins.values():
        if not os.access(path, os.X_OK):
            raise BenchError("missing binary " + path)
    return bins


# ------------------------------------------------------------ fingerprint

def fs_type(path):
    best, kind = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                    and len(mnt) > len(best):
                best, kind = mnt, parts[2]
    return kind


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "benchmark", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def pinning():
    """(server cores, load cores), or (None, None) below four CPUs. The first
    CPU is left idle: on the 4-vCPU VM this was tuned on it took most of the
    host's steal time (up to 24%), and runs placed on it spread 30% in
    throughput against 12% without it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 4:
        return cpus[1:3], cpus[3:4]
    return None, None


def fingerprint(wl_name, wl, seed):
    servers, load = pinning()
    return {
        "git_sha": git_sha(), "source_digest": source_digest(),
        "build_type": "Release", "nproc": os.cpu_count(),
        "kernel": platform.release(), "cpu_model": cpu_model(),
        "event_backend": "epoll",
        "pinning": ("servers=%s load=%s" % (sorted(servers), sorted(load))
                    if servers else "none"),
        "wal": "off in the servers; the layer replay's WAL is on %s" % fs_type(OUT),
        "workload": wl_name, "seed": seed,
        "offered_rate_ops_per_s": wl["rate"],
    }


# ---------------------------------------------------------------- cluster

CHILDREN = []  # every process this run started, for the exit-path cleanup


def stop_process(p, grace_s=5.0):
    if p.poll() is None:
        p.send_signal(signal.SIGTERM)
        try:
            p.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def stop_all():
    for p in CHILDREN:
        stop_process(p)


def free_ports(n):
    socks = []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def http_get(port, path, timeout=2.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def parse_metrics(text):
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


class Cluster:
    """A fresh deployment: one poccd per DC on free ports, with a fresh data
    dir (it holds the traced round's layer-replay WAL) that stop() removes."""

    def __init__(self, bins, seed, rundir, tag):
        self.bins, self.seed = bins, seed
        self.dir = os.path.join(rundir, tag)
        self.data = os.path.join(self.dir, "data")
        self.procs = []
        ports = free_ports(2 * DCS)
        self.ports, self.metrics_ports = ports[:DCS], ports[DCS:]
        self.config = os.path.join(self.dir, "cluster.cfg")

    def launch(self):
        os.makedirs(self.data)
        lines = ["dcs %d" % DCS, "partitions %d" % PARTITIONS, "system pocc",
                 "scheme prefix"]
        lines += ["node dc=%d parts=0-%d threads=1 addr=127.0.0.1:%d"
                  % (dc, PARTITIONS - 1, self.ports[dc]) for dc in range(DCS)]
        with open(self.config, "w") as f:
            f.write("\n".join(lines) + "\n")
        servers, _ = pinning()
        for dc in range(DCS):
            cmd = [self.bins["poccd"], "--config", self.config, "--dc", str(dc),
                   "--seed", str(self.seed), "--event-backend", "epoll",
                   "--metrics-addr", "127.0.0.1:%d" % self.metrics_ports[dc],
                   "--no-durability"]
            err = open(os.path.join(self.dir, "poccd%d.log" % dc), "w")
            # One core per poccd: its event loop is also its worker (driven
            # mode), the only busy thread of the process.
            cores = {servers[dc % len(servers)]} if servers else None
            p = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=err, stderr=err,
                preexec_fn=(lambda: os.sched_setaffinity(0, cores))
                if cores else None)
            err.close()
            self.procs.append(p)
            CHILDREN.append(p)

    def wait_ready(self, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        pending = set(range(DCS))
        while pending:
            for dc in sorted(pending):
                if self.procs[dc].poll() is not None:
                    raise BenchError("poccd dc%d exited at start" % dc)
                try:
                    status, _ = http_get(self.metrics_ports[dc], "/readyz", 1.0)
                except OSError:
                    status = 0
                if status == 200:
                    pending.discard(dc)
            if pending:
                if time.monotonic() > deadline:
                    raise BenchError("cluster not ready in %.0f s" % timeout_s)
                time.sleep(0.002)

    def scrape(self):
        return [parse_metrics(http_get(p, "/metrics")[1])
                for p in self.metrics_ports]

    def vmhwm_mb(self):
        total = 0.0
        for p in self.procs:
            with open("/proc/%d/status" % p.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def stop(self):
        for p in self.procs:
            stop_process(p)
        shutil.rmtree(self.data, ignore_errors=True)


class Driver:
    """The load driver process, talked to line by line."""

    def __init__(self, bins, cluster, wl, seed, seconds, spans, replay,
                 corrupt):
        _, load = pinning()
        cmd = [bins["driver"], "--config", cluster.config,
               "--pattern", wl["pattern"], "--rate", str(wl["rate"]),
               "--seed", str(seed), "--seconds", str(seconds)]
        if spans:
            cmd += ["--trace", "--spans-out", spans]
        if replay:
            replay_dir = os.path.join(cluster.data, "replay")
            os.makedirs(replay_dir)
            cmd += ["--replay-dir", replay_dir]
        if corrupt:
            cmd.append("--corrupt-history")
        err = open(os.path.join(cluster.dir, "driver.log"), "w")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            text=True, bufsize=1,
            preexec_fn=(lambda: os.sched_setaffinity(0, load)) if load else None)
        err.close()
        CHILDREN.append(self.proc)
        self.lines = queue.Queue()
        threading.Thread(target=self._read, daemon=True).start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix, timeout_s):
        try:
            line = self.lines.get(timeout=timeout_s)
        except queue.Empty:
            raise BenchError("driver silent while waiting for " + prefix)
        if line is None or not line.startswith(prefix):
            raise BenchError("driver said %r, expected %s" % (line, prefix))
        return line[len(prefix):].strip()

    def send(self, word):
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()


# ---------------------------------------------------------------- one pass

class Scraper:
    """Scrapes /metrics once a second between MEASURE_START and _END."""

    def __init__(self, cluster):
        self.cluster, self.samples = cluster, []
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self.stop.wait(1.0):
            self.samples.append(self.cluster.scrape())

    def __enter__(self):
        self.first = self.cluster.scrape()
        self.thread.start()
        return self

    def finish(self):
        self.stop.set()
        self.thread.join()
        self.last = self.cluster.scrape()
        return [self.first] + self.samples + [self.last]

    def __exit__(self, *exc):
        self.stop.set()


def run_round(bins, wl, seed, seconds, rundir, tag, spans=None,
              replay=False, corrupt=False):
    """One fresh cluster measured once. Traced when `spans` names the span
    file; `replay` adds the layer replay. Returns (setup_s, result, rss_mb,
    scrapes); scrapes only when traced."""
    cluster = Cluster(bins, seed, rundir, tag)
    driver = scrapes = None
    try:
        t0 = time.monotonic()
        cluster.launch()
        cluster.wait_ready()
        driver = Driver(bins, cluster, wl, seed, seconds, spans, replay,
                        corrupt)
        driver.expect("READY", 30)
        setup_s = time.monotonic() - t0
        driver.send("GO")
        driver.expect("MEASURE_START", 30)
        if spans:
            with Scraper(cluster) as scraper:
                driver.expect("MEASURE_END", seconds + 30)
                scrapes = scraper.finish()
        else:
            driver.expect("MEASURE_END", seconds + 30)
        result = json.loads(driver.expect("RESULT", 150))
        driver.proc.wait(timeout=30)
        return setup_s, result, cluster.vmhwm_mb(), scrapes
    finally:
        if driver is not None:
            stop_process(driver.proc)
        cluster.stop()


# ------------------------------------------------------- derived metrics

def total(scrape, name):
    """Sum of every series of `name` (all labels) over every DC."""
    return sum(v for dc in scrape for k, v in dc.items()
               if k == name or k.startswith(name + "{"))


def delta(first, last, name):
    return total(last, name) - total(first, name)


def ratio(a, b):
    return a / b if b else 0.0


def server_quantile(first, last, op, q):
    """Quantile of pocc_server_op_us over the window, interpolated inside
    the /metrics histogram bucket it falls in."""
    buckets = {}
    prefix = 'pocc_server_op_us_bucket{op="%s",le="' % op
    for before, after in zip(first, last):
        for k, v in after.items():
            if k.startswith(prefix):
                le = k[len(prefix):-2]
                le = float("inf") if le == "+Inf" else float(le)
                buckets[le] = buckets.get(le, 0.0) + v - before.get(k, 0.0)
    count = buckets.get(float("inf"), 0.0)
    if count <= 0:
        return 0.0
    target, lo, below = q * count, 0.0, 0.0
    for le in sorted(buckets):
        if buckets[le] >= target:
            if le == float("inf"):
                return lo
            return lo + (le - lo) * (target - below) / max(buckets[le] - below, 1e-9)
        lo, below = le, buckets[le]
    return lo


def layer_metrics(r, scrapes):
    """Per-layer metrics of one traced round `r`. The replay's metrics are
    there only for the round that ran the layer replay."""
    first, last = scrapes[0], scrapes[-1]
    ops = r["ops"] + r["probe_ops"]
    txs = delta(first, last, 'pocc_server_op_us_count{op="ro_tx"}')
    m = {k: r[k] for k in (
        "workload.next_ns_p50", "workload.send_lag_us_p99",
        "client.start_ns_p50", "client.finish_ns_p50", "client.pumps_per_op",
        "client.sendmsg_frames_per_call", "proto.encode_ns", "proto.decode_ns",
        "proto.bytes_per_op", "server.get_blocked_us_p99",
        "server.handle_get_ns", "server.handle_put_ns", "server.handle_ro_tx_ns",
        "store.intern_ns", "store.insert_ns", "store.lookup_ns",
        "wal.append_ns", "wal.sync_us_p50") if k in r}
    m["net.frames_in_per_op"] = ratio(delta(first, last, "pocc_transport_frames_in_total"), ops)
    m["net.bytes_in_per_op"] = ratio(delta(first, last, "pocc_transport_bytes_in_total"), ops)
    m["net.bytes_out_per_op"] = ratio(delta(first, last, "pocc_transport_bytes_out_total"), ops)
    m["net.sendmsg_frames_per_call"] = ratio(
        delta(first, last, "pocc_transport_sendmsg_frames_total"),
        delta(first, last, "pocc_transport_sendmsg_calls_total"))
    hits = delta(first, last, "pocc_transport_arena_hits_total")
    m["net.arena_hit_ratio"] = ratio(
        hits, hits + delta(first, last, "pocc_transport_arena_misses_total"))
    msgs = delta(first, last, "pocc_batch_messages_total")
    m["net.batch_msgs_per_batch"] = ratio(msgs, delta(first, last, "pocc_batch_batches_total"))
    m["net.batch_overhead_bytes_per_msg"] = ratio(
        delta(first, last, "pocc_batch_overhead_bytes_total"), msgs)
    m["net.outside_server_us_p50"] = r["put.p50_us"] - server_quantile(first, last, "put", 0.5)
    m["net.overloaded"] = delta(first, last, "pocc_host_overloaded_replies_total")
    m["net.reconnects"] = delta(first, last, "pocc_transport_reconnects_total") \
        + r["client.reconnects"]
    m["net.decode_errors"] = delta(first, last, "pocc_transport_decode_errors_total")
    m["runtime.inbox_depth_max"] = max(
        (v for s in scrapes for dc in s for k, v in dc.items()
         if k.startswith("pocc_inbox_depth")), default=0.0)
    m["runtime.local_deliveries_per_tx"] = ratio(
        delta(first, last, "pocc_local_deliveries_total"), txs)
    for op in ("get", "put", "ro_tx"):
        m["server.%s_us_p50" % op] = server_quantile(first, last, op, 0.5)
        m["server.%s_us_p99" % op] = server_quantile(first, last, op, 0.99)
    m["server.blocked_ratio"] = ratio(delta(first, last, "pocc_engine_blocked_total"),
                                      delta(first, last, "pocc_engine_blocking_ops_total"))
    m["server.old_read_ratio"] = ratio(delta(first, last, "pocc_engine_old_reads_total"),
                                       delta(first, last, "pocc_engine_reads_total"))
    m["server.slices_per_tx"] = ratio(delta(first, last, "pocc_engine_slices_total"), txs)
    m["store.keys"] = total(last, "pocc_store_keys")
    m["store.versions"] = total(last, "pocc_store_versions")
    m["store.versions_per_key"] = ratio(m["store.versions"], m["store.keys"])
    m["store.gc_removed"] = delta(first, last, "pocc_store_gc_removed_total")
    return m


def traced_metrics(plain, traced):
    """Per-layer metrics: each the median over the traced rounds that have
    it, plus the tracing overhead, traced against untraced round medians."""
    per_round = [layer_metrics(r, scrapes) for _, r, _, scrapes in traced]
    m = {k: statistics.median(x[k] for x in per_round if k in x)
         for k in set().union(*per_round)}
    p, t = e2e_metrics(plain), e2e_metrics(traced)
    m["trace.ops_per_s_overhead"] = ratio(p["ops_per_s"] - t["ops_per_s"],
                                          p["ops_per_s"])
    m["trace.read_p50_us_overhead"] = ratio(t["read_p50_us"] - p["read_p50_us"],
                                            p["read_p50_us"])
    return m


def e2e_metrics(rounds):
    """Median over the rounds of each end-to-end metric, plus the tail
    latencies, which are reported but not gated (README.md)."""
    def med(f):
        return statistics.median(f(setup, r, rss) for setup, r, rss, _ in rounds)
    m = {
        "setup_s": med(lambda setup, r, rss: setup),
        "server_rss_mb": med(lambda setup, r, rss: rss),
        "visibility_p50_us": med(lambda setup, r, rss: r["visibility.p50_us"]),
        "ops_per_s": med(lambda setup, r, rss: r["capacity_ops_per_s"]),
        "window_ops_per_s": med(lambda setup, r, rss: r["window_ops_per_s"]),
    }
    for op in ("read", "put"):
        for q in ("p50", "p99", "p999"):
            m["%s_%s_us" % (op, q)] = med(
                lambda setup, r, rss: r["%s.%s_us" % (op, q)])
    return m


def load_spec():
    """Metric names and units, from BENCHMARK.json at the checkout root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ------------------------------------------------------------------- main

def leftovers(rundir, survivors):
    """`survivors` (children alive after their round's teardown), processes
    whose command line names the run directory, and data directories still
    on disk."""
    left = ["pid %d" % pid for pid in survivors]
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                cmd = f.read().decode(errors="replace")
        except OSError:
            continue
        if rundir in cmd and int(pid) != os.getpid():
            left.append("pid %s" % pid)
    for d, dirs, _ in os.walk(rundir):
        left += [os.path.join(d, n) for n in dirs if n == "data"]
    return left


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-history", action="store_true",
                    help="self-test: corrupt one read before the check")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    rundir = os.path.join(OUT, "%s-%d" % (args.workload, os.getpid()))
    rounds, traced = [], []
    try:
        e2e_units, layer_units = load_spec()
        bins = build()
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        if args.trace:
            # Alternate so both sides see the same drift of the host.
            seconds = args.seconds / TRACE_PAIRS
            for i in range(TRACE_PAIRS):
                seed = args.seed * 100 + i
                rounds.append(run_round(bins, wl, seed, seconds, rundir,
                                        "round%d" % i))
                spans = os.path.join(OUT, "spans-%s-%d.csv" % (args.workload, i))
                traced.append(run_round(bins, wl, seed, seconds, rundir,
                                        "traced%d" % i, spans=spans,
                                        replay=(i == 0)))
        else:
            seconds = args.seconds / wl["rounds"]
            for i in range(wl["rounds"]):
                rounds.append(run_round(bins, wl, args.seed * 100 + i, seconds,
                                        rundir, "round%d" % i,
                                        corrupt=args.corrupt_history))
                if not rounds[-1][1]["correct"]:
                    break
    except (BenchError, OSError, KeyError, ValueError) as e:
        log("error: %s" % e)
        return 2
    finally:
        # Each round stops its own processes; one still alive here escaped.
        survivors = [p.pid for p in CHILDREN if p.poll() is None]
        stop_all()
    left = leftovers(rundir, survivors)
    if left:
        log("left behind: %s" % ", ".join(left))
    else:
        shutil.rmtree(rundir, ignore_errors=True)

    results = [r for _, r, _, _ in rounds + traced]
    correct = not left and all(r["correct"] for r in results)
    e2e = e2e_metrics(rounds)
    if traced:
        values, units = traced_metrics(rounds, traced), layer_units
    else:
        values, units = e2e, e2e_units
    report = {
        "fingerprint": fingerprint(args.workload, wl, args.seed),
        "end_to_end": e2e,
        "rounds": [{"setup_s": setup, "server_rss_mb": rss, "driver": r}
                   for setup, r, rss, _ in rounds],
        "traced": [r for _, r, _, _ in traced],
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "report-%s.json" % args.workload), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(sum(r["attempted"] for r in results)),
        "failed": int(sum(r["failed"] for r in results)),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    if not correct:
        for r in results:
            log("check: violations=%d complete=%s value_mismatches=%d"
                % (r["violations"], r["history_complete"], r["value_mismatches"]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
