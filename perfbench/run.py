#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, real `soi` binaries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds `soi` and the
benchmark's own probe (`perfbench/probe`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), generates every input from `--seed`, drives the
workload for `--seconds`, checks every output against an in-process
oracle, and prints as its last stdout line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it is the
host stamp. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
the same workload with half the requests traced and reports the
per-layer metrics. The metric names and units are read from
`BENCHMARK.json`; what each one measures and the layer it should move are
in `perfbench/README.md`. `correct` is false if any check failed; a run in
which no operation succeeded exits 1 without a result.

Workloads:
  batch-spheres       repeated `soi spheres --samples 256 --threads N` on one
                      10^4-node weighted-cascade Barabasi-Albert graph.
  serve-hot           one `soi serve --workers N` daemon, two such graphs warm
                      for both backends; closed-loop typical-cascade and
                      spread-estimate requests over a Zipf-skewed hot set.
  serve-routed-churn  `soi route` over two `soi serve --workers 1 --threads 1
                      --cache-cap 2` shards holding six 1000-node graphs,
                      three routed to each; skewed graph choice, so cold
                      graphs miss, evict and rebuild. Each lane sends one
                      shard's share.

Load comes from at most two closed-loop client lanes in this process. Each
request opens its own connection, so each daemon's open descriptor count
grows with the requests it has served (reported as `daemon.open_fds`).
Serve workloads run in three rounds; each round starts the program from
nothing, so set-up is measured three times and reported as a median.
Their `p50_ms` and `p99_ms` are over typical-cascade requests only: the
request-kind shares of the streams are assumptions, and a percentile over
all kinds would depend on where a guessed share falls. Latency per request
kind is a per-layer metric.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("batch-spheres", "serve-hot", "serve-routed-churn")
ROUNDS = 3
# batch-spheres measures set-up with this many partial `soi spheres` runs.
SETUP_REPS = 7
WORLDS = 256
LANES_MAX = 2
# Index-cache capacity of each serve-routed-churn shard; the ring routes
# three graphs to each.
CHURN_CACHE_CAP = 2
REQUEST_TIMEOUT_S = 60.0
# On the serve workloads `batch_s` is the time to answer this many
# requests at the run's `qps`. On churn that is one period of the
# stream's request-kind pattern (100 per lane).
BATCH_REQUESTS = {"serve-hot": 512, "serve-routed-churn": 200}
PHASES = ("parse", "queue_wait", "cache", "compute", "serialize")
# Request kinds the daemon phase metrics are split by: the wire type,
# with `.sketch` appended for the sketch backend.
REQUEST_KINDS = ("typical-cascade", "spread-estimate", "spread-estimate.sketch",
                 "infmax-tc", "infmax-tc.sketch")
# Per-layer metrics of the serving path, by name prefix; they read 0 on
# batch-spheres, which runs no daemon.
SERVING_PREFIXES = ("daemon.", "frontend.", "cache.", "router.", "queue.", "latency.")
SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "soi-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "probe", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "soi"), os.path.join(release, "perfbench-probe")


# ------------------------------------------------------------------ host


def git_revision(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        text = open(head).read().strip()
    except OSError:
        return "unknown"
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    try:
        return open(os.path.join(root, ".git", ref)).read().strip()
    except OSError:
        pass
    try:
        for line in open(os.path.join(root, ".git", "packed-refs")):
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def parallelism():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat; zeros where
    it is not readable."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def host_stamp(root, workload, threads, ticks_at_start):
    cores = parallelism()
    steal, total = (b - a for a, b in zip(ticks_at_start, cpu_ticks()))
    return {
        "available_parallelism": cores,
        "cpu_model": cpu_model(),
        "profile": "release",
        "git_revision": git_revision(root),
        "workload": workload,
        "threads": threads,
        "oversubscribed": threads > cores,
        "nofile_limit": resource.getrlimit(resource.RLIMIT_NOFILE)[0],
        # Share of CPU time the hypervisor gave to other guests while the
        # workload ran. On a shared host it moves every timing metric.
        "steal_share": steal / total if total else 0.0,
    }


# ------------------------------------------------------------------ helpers


def median(xs):
    """Median of a metric's samples; a metric with none has no value."""
    if not xs:
        raise RuntimeError("a metric has no samples")
    return statistics.median(xs)


def median_or_zero(xs):
    """Median of a per-layer metric; 0 when the run sent no request of
    the kind it is split by."""
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile of an unsorted list."""
    if not xs:
        raise RuntimeError("a metric has no samples")
    s = sorted(xs)
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1]


def proc_status_kb(pid, field):
    try:
        for line in open(f"/proc/{pid}/status"):
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def open_fds(pid):
    try:
        return len(os.listdir(f"/proc/{pid}/fd"))
    except OSError:
        return 0


def one_shot(port, line, timeout=REQUEST_TIMEOUT_S):
    """Sends one request line on a fresh connection; returns
    (round-trip ns, response bytes or None, error or None)."""
    start = time.perf_counter_ns()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
            s.sendall(line)
            buf = bytearray()
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    raise ConnectionError("connection closed before an answer")
                buf += chunk
    except (OSError, ConnectionError) as e:
        return time.perf_counter_ns() - start, None, type(e).__name__
    return time.perf_counter_ns() - start, bytes(buf), None


def control(port, kind):
    _, resp, err = one_shot(port, ('{"v":1,"id":0,"type":"%s"}\n' % kind).encode())
    if err:
        raise RuntimeError(f"{kind} on port {port}: {err}")
    return json.loads(resp)


def request_kind(doc):
    return doc["type"] + (".sketch" if doc.get("backend") == "sketch" else "")


def normalize(answer):
    doc = json.loads(answer) if isinstance(answer, (str, bytes)) else answer
    for key in ("id", "wall_ns", "trace"):
        doc.pop(key, None)
    return doc


class Procs:
    """Every program process this run started; all are stopped on exit."""

    def __init__(self, work):
        self.work = work
        self.live = []
        self.count = 0

    def spawn(self, args):
        self.count += 1
        out = os.path.join(self.work, f"proc{self.count}.out")
        with open(out, "w") as f:
            p = subprocess.Popen(args, stdout=f, stderr=subprocess.DEVNULL, cwd=self.work)
        self.live.append(p)
        return p, out

    def listening(self, p, out, deadline_s=120.0):
        end = time.monotonic() + deadline_s
        while time.monotonic() < end:
            try:
                text = open(out).read()
            except OSError:
                text = ""
            for line in text.splitlines():
                if line.startswith("listening on "):
                    return int(line.rsplit(":", 1)[1])
            if p.poll() is not None:
                raise RuntimeError(f"{p.args[1]} exited with {p.returncode} before listening")
            time.sleep(0.002)
        raise RuntimeError(f"{p.args[1]} did not start listening")

    def stop(self, p, port):
        if p.poll() is None and port is not None:
            one_shot(port, b'{"v":1,"id":0,"type":"shutdown"}\n', timeout=10)
            try:
                p.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        if p.poll() is None:
            p.kill()
        p.wait()
        self.live.remove(p)

    def stop_all(self):
        for p in list(self.live):
            if p.poll() is None:
                p.kill()
            p.wait()
        self.live.clear()


# ------------------------------------------------------------------ load


class Tally:
    """Outcomes of every attempted operation, with failure causes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.causes = {}

    def fail(self, cause):
        self.failed += 1
        self.causes[cause] = self.causes.get(cause, 0) + 1


def drive(port, bodies, stream, cursors, lanes, seconds, traced):
    """Closed loop: `lanes` threads, each sending its next request only
    after the previous answer arrived. With one cursor per lane, stream
    position p belongs to lane p % lanes; with one cursor, the lanes
    share it. Cursors advance in place. Every other request of a lane is
    traced when `traced`. Returns (records, window seconds); a record is
    (pool index, round-trip ns, response, error, traced)."""
    lock = threading.Lock()
    records = []
    start = time.perf_counter_ns()
    end = start + int(seconds * 1e9)

    def lane(which):
        mine = []
        while time.perf_counter_ns() < end:
            if len(cursors) == lanes:
                at = cursors[which]
                cursors[which] += lanes
            else:
                with lock:
                    at = cursors[0]
                    cursors[0] += 1
            idx = stream[at % len(stream)]
            tr = traced and len(mine) % 2 == 1
            line = '{"v":1,"id":%d,%s%s}\n' % (at, bodies[idx], ',"trace":true' if tr else "")
            rtt, resp, err = one_shot(port, line.encode())
            mine.append((idx, rtt, resp, err, tr))
        with lock:
            records.extend(mine)

    threads = [threading.Thread(target=lane, args=(i,)) for i in range(lanes)]
    # A garbage-collector pass in a lane would show up as server latency.
    gc.disable()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        gc.enable()
    return records, (time.perf_counter_ns() - start) / 1e9


def check_records(records, expected, tally, window_ns):
    """Checks every answer against the oracle. Returns per-record
    (latency ns with failures counted as the whole window, ok flag)."""
    out = []
    for idx, rtt, resp, err, _ in records:
        tally.attempted += 1
        ok = False
        if err:
            tally.fail(f"connect/io: {err}")
        else:
            doc = json.loads(resp)
            status = doc.get("status")
            if status != "ok":
                kind = doc.get("error", {}).get("kind", status) if status == "error" else status
                tally.fail(f"{status}: {kind}")
            elif normalize(doc) != expected[idx]:
                tally.fail("wrong answer")
            else:
                ok = True
        out.append((rtt if ok else max(rtt, window_ns), ok))
    return out


# ------------------------------------------------------------------ workloads


def read_inputs(work):
    bodies = open(os.path.join(work, "pool.txt")).read().splitlines()
    stream = [int(x) for x in open(os.path.join(work, "stream.txt")).read().split()]
    graphs = [line.split("\t") for line in open(os.path.join(work, "graphs.txt")).read().splitlines()]
    return bodies, stream, [(g[0], os.path.join(work, g[1])) for g in graphs]


def probe_json(probe, args, work):
    done = subprocess.run([probe] + args, cwd=work, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spheres_args(ctx, graph, out):
    return [ctx["soi"], "spheres", graph, "--samples", str(WORLDS), "--threads",
            str(ctx["threads"]), "--seed", str(ctx["seed"]), "--out", out]


def run_batch(ctx):
    probe, work, seconds, trace = ctx["probe"], ctx["work"], ctx["seconds"], ctx["trace"]
    graph = os.path.join(work, "g0.tsv")
    tally = Tally()

    # Set-up: spawn, graph load and index build, SETUP_REPS times. A
    # one-tick deadline stops `soi spheres` after its first block of
    # spheres, with exit code 3 and a partial sphere file.
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        done = subprocess.run(spheres_args(ctx, graph, os.path.join(work, "setup.tsv"))
                              + ["--deadline-ticks", "1"], cwd=work, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        tally.attempted += 1
        if done.returncode == 3:
            setups.append(elapsed)
        else:
            tally.fail(f"soi spheres --deadline-ticks 1 exit {done.returncode}")

    runs, rss, outputs = [], [], []
    plain, traced = [], []
    crashed = 0
    loop_start = time.perf_counter()
    i = 0
    while i < 3 or time.perf_counter() - loop_start < seconds:
        out = os.path.join(work, f"spheres{i}.tsv")
        args = spheres_args(ctx, graph, out)
        with_trace = trace and i % 2 == 1
        if with_trace:
            args += ["--trace", "info"]
        start = time.perf_counter()
        p = subprocess.Popen(args, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.perf_counter() - start
        tally.attempted += 1
        if p.returncode != 0:
            tally.fail(f"soi spheres exit {p.returncode}")
            crashed += 1
        else:
            runs.append(elapsed)
            (traced if with_trace else plain).append(elapsed)
            rss.append(usage.ru_maxrss / 1024.0)
            outputs.append(out)
        i += 1
    window = time.perf_counter() - loop_start
    if not runs or not setups:
        raise RuntimeError(f"no soi spheres run succeeded: {json.dumps(tally.causes, sort_keys=True)}")

    # Correctness: every sphere file equals the one-thread in-process pipeline.
    ref = os.path.join(work, "spheres.ref.tsv")
    t1 = probe_json(probe, ["spheres-ref", graph, str(WORLDS), str(ctx["seed"]), ref], work)
    want = open(ref, "rb").read()
    for out in outputs:
        if open(out, "rb").read() != want:
            tally.fail("sphere file differs from in-process threads=1 pipeline")

    lat_ms = [r * 1e3 for r in runs] + [window * 1e3] * crashed
    metrics = {
        "batch_s": median(runs),
        "setup_s": median(setups),
        "p50_ms": percentile(lat_ms, 50),
        "p99_ms": percentile(lat_ms, 99),
        "qps": len(runs) / window,
        "rss_mb": median(rss),
    }
    layers = None
    if trace:
        layers = probe_json(probe, ["layers", ".", "g0"], work)
        layers.update(t1)
        batch_ms = median(plain) * 1e3
        layers["trace.overhead_us"] = (median(traced) - median(plain)) * 1e6
        covered = layers["graph.read_ms"] + layers["index.build_ms.tN"] + layers["core.cascades_ms.tN"]
        layers["trace.coverage_ppm"] = covered / batch_ms * 1e6 if batch_ms else 0.0
        layers.update((m["name"], 0.0) for m in ctx["spec"]["per_layer"]
                      if m["name"].startswith(SERVING_PREFIXES))
    return tally, metrics, layers


def serve_round(ctx, procs, bodies, graphs):
    """Starts the workload's processes and warms them. Returns (port to
    load, members as (process, "daemon" or "router", port), set-up
    seconds, the daemon ports)."""
    soi, work, workload = ctx["soi"], ctx["work"], ctx["workload"]
    specs = [f"{name}={path}" for name, path in graphs]
    start = time.perf_counter()
    if workload == "serve-hot":
        p, out = procs.spawn([soi, "serve", *specs, "--workers", str(ctx["threads"]),
                              "--worlds", str(WORLDS)])
        port = procs.listening(p, out)
        members = [(p, "daemon", port)]
        shard_ports = [port]
    else:
        # Both shards load every graph; the router's ring decides which
        # shard serves each, so a change to the ring cannot fail requests.
        shards = [procs.spawn([soi, "serve", *specs, "--workers", "1", "--threads", "1",
                               "--cache-cap", str(CHURN_CACHE_CAP), "--worlds", str(WORLDS)])
                  for _ in range(2)]
        shard_ports = [procs.listening(p, out) for p, out in shards]
        r, rout = procs.spawn([soi, "route", *[f"127.0.0.1:{sp}" for sp in shard_ports]])
        port = procs.listening(r, rout)
        members = [(p, "daemon", sp) for (p, _), sp in zip(shards, shard_ports)]
        members.append((r, "router", port))
    # Warm and answering: a typical cascade per graph, and on serve-hot
    # the sketch backend of every graph too.
    for name, _ in graphs:
        warm = ['"type":"typical-cascade","graph":"%s","source":0' % name]
        if workload == "serve-hot":
            warm.append('"type":"spread-estimate","graph":"%s","seeds":[0],"samples":1,'
                        '"backend":"sketch"' % name)
        for body in warm:
            _, resp, err = one_shot(port, ('{"v":1,"id":0,%s}\n' % body).encode())
            if err or json.loads(resp).get("status") != "ok":
                raise RuntimeError(f"warm-up request failed: {err or resp!r}")
    return port, members, time.perf_counter() - start, shard_ports


def daemon_counters(shard_ports):
    total = {"hits": 0, "misses": 0, "rejected": 0}
    for sp in shard_ports:
        doc = control(sp, "stats")
        total["hits"] += doc.get("cache_hits", 0)
        total["misses"] += doc.get("cache_misses", 0)
        total["rejected"] += doc.get("rejected_queue_full", 0)
    return total


def relay_probe(port, shard_port, bodies):
    """Round trip of the same cache-free requests through the router and
    straight to a shard; returns the median difference in µs."""
    mc = [b for b in bodies if '"spread-estimate"' in b and '"sketch"' not in b][:40]
    routed, direct = [], []
    for i, body in enumerate(mc * 2):
        line = ('{"v":1,"id":%d,%s}\n' % (i, body)).encode()
        for target, sink in ((port, routed), (shard_port, direct)):
            rtt, _, err = one_shot(target, line)
            if not err:
                sink.append(rtt)
    return (median(routed) - median(direct)) / 1e3


def run_serve(ctx):
    probe, work, seconds, trace = ctx["probe"], ctx["work"], ctx["seconds"], ctx["trace"]
    workload = ctx["workload"]
    bodies, stream, graphs = read_inputs(work)
    exp_path = os.path.join(work, "expected.txt")
    subprocess.run([probe, "expect", ".", exp_path], cwd=work, check=True)
    expected = [normalize(line) for line in open(exp_path).read().splitlines()]
    kinds = [request_kind(json.loads("{%s}" % b)) for b in bodies]

    procs = ctx["procs"]
    tally = Tally()
    lanes = ctx["lanes"]
    setups, rss = [], []
    lat_by_kind, lat_plain, lat_traced = {}, [], []
    ok_count, window_total = 0, 0.0
    phases = {}
    overheads = []
    covered_ns = rtt_ns = 0
    fds = {"daemon": 0, "router": 0}
    counters = {"hits": 0, "misses": 0, "rejected": 0}
    forwarded = failures = 0
    relays = []
    # serve-routed-churn streams alternate between the two shards' graphs,
    # so with two lanes each lane (and each shard's cache) sees one shard.
    cursors = list(range(lanes)) if workload == "serve-routed-churn" else [0]
    for _ in range(ROUNDS):
        port, members, setup, shard_ports = serve_round(ctx, procs, bodies, graphs)
        setups.append(setup)
        before = daemon_counters(shard_ports)
        records, window = drive(port, bodies, stream, cursors, lanes, seconds / ROUNDS, trace)
        after = daemon_counters(shard_ports)
        for key in counters:
            counters[key] += after[key] - before[key]
        checked = check_records(records, expected, tally, int(window * 1e9))
        window_total += window
        for (idx, rtt, resp, _, traced), (lat, ok) in zip(records, checked):
            kind = kinds[idx]
            lat_by_kind.setdefault(kind, []).append(lat / 1e6)
            (lat_traced if traced else lat_plain).append(lat)
            if not ok:
                continue
            ok_count += 1
            doc = json.loads(resp)
            overheads.append((rtt - doc.get("wall_ns", 0)) / 1e3)
            if traced:
                total = 0
                for ph in doc.get("trace", []):
                    phases.setdefault((kind, ph["phase"]), []).append(ph["wall_ns"] / 1e3)
                    total += ph["wall_ns"]
                covered_ns += total
                rtt_ns += rtt
        if trace and workload == "serve-routed-churn":
            relays.append(relay_probe(port, shard_ports[0], bodies))
            doc = control(port, "stats")
            for shard in doc.get("shards", []):
                for replica in shard.get("replicas", []):
                    forwarded += replica.get("forwarded", 0)
                    failures += replica.get("failures", 0)
        round_rss = 0.0
        for p, role, _ in members:
            round_rss += proc_status_kb(p.pid, "VmHWM") / 1024.0
            fds[role] = max(fds[role], open_fds(p.pid))
        rss.append(round_rss)
        for p, _, member_port in reversed(members):
            procs.stop(p, member_port)

    if ok_count == 0:
        raise RuntimeError(f"no request answered: {json.dumps(tally.causes, sort_keys=True)}")
    qps = ok_count / window_total
    tc_ms = lat_by_kind.get("typical-cascade", [])
    metrics = {
        "batch_s": BATCH_REQUESTS[workload] / qps,
        "setup_s": median(setups),
        "p50_ms": percentile(tc_ms, 50),
        "p99_ms": percentile(tc_ms, 99),
        "qps": qps,
        "rss_mb": median(rss),
    }
    layers = None
    if trace:
        layers = probe_json(probe, ["layers", ".", graphs[0][0], "--with-t1"], work)
        for kind in REQUEST_KINDS:
            for ph in PHASES:
                layers[f"daemon.{ph}_us.{kind}"] = median_or_zero(phases.get((kind, ph), []))
            ms = lat_by_kind.get(kind)
            for q in (50, 99):
                layers[f"latency.p{q}_ms.{kind}"] = percentile(ms, q) if ms else 0.0
        lookups = counters["hits"] + counters["misses"]
        layers.update({
            "frontend.overhead_us": median(overheads),
            "cache.hit_ratio": counters["hits"] / lookups if lookups else 0.0,
            "cache.builds": counters["misses"],
            "router.relay_us": median_or_zero(relays),
            "router.forwarded": forwarded,
            "router.failures": failures,
            "daemon.open_fds": fds["daemon"],
            "router.open_fds": fds["router"],
            "queue.rejected": counters["rejected"],
            "trace.overhead_us": (median(lat_traced) - median(lat_plain)) / 1e3,
            "trace.coverage_ppm": covered_ns / rtt_ns * 1e6 if rtt_ns else 0.0,
        })
    return tally, metrics, layers


# ------------------------------------------------------------------ main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    soi, probe = build(root)
    ticks = cpu_ticks()
    cores = parallelism()
    lanes = min(LANES_MAX, cores)
    program_threads = {"batch-spheres": cores, "serve-hot": cores + lanes,
                       "serve-routed-churn": 2 + lanes}[args.workload]
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    procs = Procs(work)
    try:
        subprocess.run([probe, "gen", args.workload, str(args.seed), "."], cwd=work, check=True)
        ctx = {
            "soi": soi, "probe": probe, "work": work, "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace), "workload": args.workload,
            "threads": cores, "lanes": lanes, "procs": procs, "spec": spec,
        }
        runner = run_batch if args.workload == "batch-spheres" else run_serve
        tally, metrics, layers = runner(ctx)
    finally:
        procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        layers["error_rate"] = tally.failed / tally.attempted
        declared, values = spec["per_layer"], layers
    else:
        declared, values = spec["end_to_end"], metrics
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"declared metrics not measured: {', '.join(missing)}")
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if tally.failed:
        log(f"{tally.failed} of {tally.attempted} failed: {json.dumps(tally.causes, sort_keys=True)}")
    stamp = host_stamp(root, args.workload, program_threads, ticks)
    stamp["failure_causes"] = tally.causes
    print(json.dumps({"host": stamp}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }))


if __name__ == "__main__":
    try:
        main()
    except Exception as e:  # noqa: BLE001 - any failure must exit non-zero without a result
        log(f"error: {e}")
        sys.exit(1)
