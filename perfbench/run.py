#!/usr/bin/env python3
"""End-to-end benchmark of the eventorder analyses, with a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

builds the CLI and the benchmark probe with dune, writes the workload's
seeded inputs, measures for about --seconds, checks every output, and
prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
`python3 perfbench/run.py --smoke` runs every workload at a tiny size in
both modes and fails unless all outputs check.  See perfbench/README.md.
"""

import argparse
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("stream_mesh", "serve_mixed", "sat_reductions")
BUILD = os.path.join("_build", "default")
EVENTORDER = os.path.join(BUILD, "bin", "eventorder.exe")
PROBE = os.path.join(BUILD, "perfbench", "probe.exe")
WORK = os.path.join("perfbench", "_work")
TMP = os.path.join(WORK, "tmp")

# Per-layer metrics, with their units.  Every traced run reports all of
# them; a layer the workload never calls reads 0.
PER_LAYER = {
    "prog.load_ms": "ms",
    "prog.load_rss_mb": "MB",
    "triage.races_big_ms": "ms",
    "triage.candidates": "count",
    "triage.refuted": "count",
    "triage.certified": "count",
    "triage.undecided": "count",
    "api.decode_ms": "ms",
    "prog.interp_ms": "ms",
    "model.execution_ms": "ms",
    "feasible.session_ms": "ms",
    "core.relations_ms": "ms",
    "race.races_ms": "ms",
    "core.pair_ms": "ms",
    "api.render_ms": "ms",
    "server.overhead_ms": "ms",
    "feasible.cache_hit_ratio": "ratio",
    "feasible.cache_lookups": "count",
    "feasible.enum_nodes": "count",
    "feasible.reach_memo_hit_ratio": "ratio",
    "feasible.reach_memo_lookups": "count",
    "triage.tier_hits_approx": "count",
    "triage.tier_hits_reach": "count",
    "triage.tier_hits_sat": "count",
    "triage.tier_hits_enum": "count",
    "triage.escalations": "count",
    "feasible.skeleton_ms": "ms",
    "encode.build_ms": "ms",
    "encode.vars": "count",
    "encode.clauses": "count",
    "sat.solve_ms": "ms",
    "sat.conflicts": "count",
    "sat.propagations": "count",
}

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput": "1/s",
    "peak_mem_mb": "MB",
}

# Sizes.  "full" is the benchmark; "smoke" is the tiny run of --smoke.
SIZES = {
    "full": {
        "mesh_events": 1_000_000, "mesh_setups": 3, "mesh_traced_ops": 2,
        "serve_per_conn_per_s": 500, "serve_setups": 3, "serve_traced_per_s": 100,
        "sat_setups": 5, "sat_templates": None, "sat_traced_cycles": 2,
    },
    "smoke": {
        "mesh_events": 20_000, "mesh_setups": 1, "mesh_traced_ops": 1,
        "serve_per_conn_per_s": 100, "serve_setups": 1, "serve_traced_per_s": 50,
        "sat_setups": 1, "sat_templates": 3, "sat_traced_cycles": 1,
    },
}

WORKERS = 2
REQUEST_TIMEOUT_S = 60.0
SAT_WARMUP = 3
# serve_mixed's latency_p50_ms and throughput are medians over windows
# of this many consecutive answers: about one 500-request block of each
# connection, so each window holds the same mix of requests.
WINDOW = 1000


class SetupError(Exception):
    """The benchmark could not run: no result is printed."""


def log(msg):
    print(msg, flush=True)


def clean_env():
    # Every process starts with the EO_* knobs cleared, so nothing from
    # the caller's environment changes engines, models, jobs or caches,
    # and with its temporary files (the compiler's, say) kept inside the
    # checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("EO_")}
    env["TMPDIR"] = os.path.abspath(TMP)
    return env


def check(cmd):
    """Runs a command to completion; returns its stdout."""
    r = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise SetupError("%s failed (exit %d): %s"
                         % (" ".join(cmd), r.returncode, r.stderr.strip()[-2000:]))
    return r.stdout


def probe(*args):
    return check([PROBE] + [str(a) for a in args])


def timed_child(cmd, out_path):
    """Runs one analysing process; returns (seconds, peak RSS MB, exit code)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, env=clean_env(), stdout=out,
                             stderr=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        elapsed = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, p.returncode


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "eventorder.ml"))):
        raise SetupError("run from the root of an eventorder source checkout "
                         "(no dune-project / bin/eventorder.ml here)")
    os.makedirs(TMP, exist_ok=True)
    env = clean_env()
    env["DUNE_CACHE"] = "disabled"
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "./bin/eventorder.exe",
                            "./perfbench/probe.exe"], env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        raise SetupError("cannot run dune: %s" % e)
    if r.returncode != 0:
        raise SetupError("build failed:\n" + r.stdout[-4000:])


def settle():
    # Write dirty pages (and the discards of deleted files) out now, so
    # background writeback does not land in a timed phase.
    os.sync()


def workdir(name):
    d = os.path.join(WORK, name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    settle()
    return d


def probe_setup(d, times, *args):
    """A probe input generator run `times` times in one process, each into
    a fresh d/s<k>; returns (the seconds of each, the last directory)."""
    times_s = json.loads(probe(*args, "--repeat", times, "--dir", d))["setup_s"]
    settle()
    return times_s, os.path.join(d, "s%d" % (times - 1))


def repeat_setup(d, times, setup, release=lambda result: None):
    """Runs `setup(dir)` `times` times, each into a fresh directory, so no
    set-up pays for truncating an earlier one's files; `release` undoes
    all but the last outside the timing.  Returns (median seconds, the last
    directory, the last result)."""
    durations, result = [], None
    for k in range(times):
        if k:
            release(result)
        sub = os.path.join(d, "s%d" % k)
        os.makedirs(sub)
        t0 = time.perf_counter()
        result = setup(sub)
        durations.append(time.perf_counter() - t0)
    settle()
    return statistics.median(durations), sub, result


def pct(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_environment():
    """nproc, OCaml version, commit and the lib/ + bin/ line count."""
    loc = 0
    for top in ("lib", "bin"):
        for dirpath, _, files in os.walk(top):
            for f in files:
                if f.endswith((".ml", ".mli")):
                    with open(os.path.join(dirpath, f), "rb") as fh:
                        loc += fh.read().count(b"\n")
    commit = ""
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True).stdout.strip()
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": json.loads(probe("version"))["ocaml"],
        "commit": commit or "unknown (not a git checkout)",
        "lib_bin_lines": loc,
    }


def report_spans(summary, ops):
    busy, self_ms = summary["busy_ms"], summary["self_ms"]
    log("  span                      busy ms/op   self ms/op")
    for name in sorted(busy, key=lambda n: -busy[n]):
        log("  %-24s %12.4f %12.4f" % (name, busy[name] / ops, self_ms[name] / ops))


def tracing_report(untraced_ms, summary, ops):
    """Prints untraced vs traced totals per op and the uncovered part."""
    traced_ms = summary["busy_ms"]["op"] / ops
    uncovered = summary["self_ms"]["op"] / ops
    log("  untraced total %.4f ms/op, traced total %.4f ms/op (tracing overhead %+.2f%%)"
        % (untraced_ms, traced_ms, 100.0 * (traced_ms - untraced_ms) / untraced_ms))
    log("  traced time no layer span covers: %.4f ms/op (%.2f%%)"
        % (uncovered, 100.0 * uncovered / traced_ms))


def layer_ms(summary, ops, name):
    return summary["busy_ms"].get(name, 0.0) / ops


# ------------------------------------------------------------------ #
# stream_mesh                                                         #
# ------------------------------------------------------------------ #

def mesh_check(doc, planted):
    """Certified races = planted pairs, nothing undecided, all accounted."""
    races = {(r["e1"], r["e2"]) for r in doc["races"]}
    return (not doc["truncated"]
            and doc["undecided"] == 0
            and doc["refuted"] + doc["certified"] == doc["candidates"]
            and doc["certified"] == len(planted)
            and races == planted)


def stream_mesh(seed, seconds, traced, size):
    d = workdir("stream_mesh")
    setup_times, d = probe_setup(d, 1 if traced else size["mesh_setups"], "mesh-inputs",
                                 "--seed", seed, "--events", size["mesh_events"])
    trace = os.path.join(d, "mesh.eotrace")
    with open(os.path.join(d, "mesh.planted")) as fh:
        planted = {tuple(int(x) for x in line.split()) for line in fh if line.strip()}
    failed = attempted = 0
    try:
        if not traced:
            ops, rss = [], []
            t_start = time.perf_counter()
            while True:
                out = os.path.join(d, "op%d.json" % len(ops))
                elapsed, peak, rc = timed_child(
                    [EVENTORDER, "races", trace, "--engine", "auto", "--format", "json"], out)
                ops.append(elapsed)
                rss.append(peak)
                attempted += 1
                try:
                    with open(out) as fh:
                        doc = json.load(fh)
                    ok = rc == 0 and doc["status"] == "ok" and mesh_check(doc, planted)
                except (ValueError, KeyError):
                    ok = False
                failed += not ok
                if time.perf_counter() - t_start >= seconds:
                    break
            wall = time.perf_counter() - t_start
            log("stream_mesh: %d analyses of %d events, %.2f s timed"
                % (len(ops), size["mesh_events"], wall))
            return attempted, failed, {
                "setup_s": statistics.median(setup_times),
                "latency_p50_ms": 1000.0 * statistics.median(ops),
                "latency_p99_ms": 1000.0 * pct(ops, 99),
                "throughput": size["mesh_events"] / statistics.median(ops),
                "peak_mem_mb": max(rss),
            }
        docs = []
        for i in range(1 + size["mesh_traced_ops"]):
            docs.append(json.loads(probe("mesh-op", "--file", trace, "--trace", min(i, 1),
                                         "--spans", os.path.join(d, "spans%d.jsonl" % i))))
        for doc in docs:
            attempted += 1
            failed += not mesh_check(doc, planted)
        traced_docs = docs[1:]
        n = len(traced_docs)
        summary = {k: {name: sum(doc[k].get(name, 0.0) for doc in traced_docs)
                       for name in traced_docs[0][k]} for k in ("busy_ms", "self_ms")}
        log("stream_mesh traced: %d ops (+1 untraced)" % n)
        report_spans(summary, n)
        tracing_report(docs[0]["wall_ms"], summary, n)
        last = traced_docs[-1]
        return attempted, failed, {
            "prog.load_ms": layer_ms(summary, n, "prog.load"),
            "prog.load_rss_mb": statistics.median(doc["load_rss_mb"] for doc in traced_docs),
            "triage.races_big_ms": layer_ms(summary, n, "triage.races_big"),
            "triage.candidates": last["candidates"],
            "triage.refuted": last["refuted"],
            "triage.certified": last["certified"],
            "triage.undecided": last["undecided"],
            "triage.tier_hits_approx": last["tier_hits_approx"],
            "triage.escalations": last["escalations"],
        }
    finally:
        for sub in os.listdir(os.path.dirname(d)):
            path = os.path.join(os.path.dirname(d), sub, "mesh.eotrace")
            if os.path.exists(path):
                os.remove(path)
        settle()


# ------------------------------------------------------------------ #
# serve_mixed                                                         #
# ------------------------------------------------------------------ #

class Daemon:
    """A fresh `eventorder serve` on its own Unix socket."""

    def __init__(self, d):
        # A relative socket path keeps it under the 108-byte sun_path limit
        # wherever the checkout lives.
        self.sock = os.path.join(d, "d.sock")
        self.log = open(os.path.join(d, "serve.log"), "wb")
        self.proc = subprocess.Popen(
            [EVENTORDER, "serve", "--socket", self.sock, "--workers", str(WORKERS)],
            env=clean_env(), stdout=subprocess.DEVNULL, stderr=self.log)
        self.peak_mb = None
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                c = Conn(self.sock)
                try:
                    c.send(b'{"schema": "eventorder.request/1", "op": "ping"}\n')
                    if json.loads(c.recv_line())["op"] == "ping":
                        return
                finally:
                    c.close()
            except (OSError, ValueError, KeyError):
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise SetupError("eventorder serve did not answer ping")
            time.sleep(0.002)

    def stop(self):
        """SIGTERM (graceful drain) and reap, SIGKILL if the drain hangs;
        records the daemon's peak RSS."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.perf_counter() + 20.0
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    self.proc.kill()
                    _, status, usage = os.wait4(self.proc.pid, 0)
                    break
                time.sleep(0.005)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_mb = usage.ru_maxrss / 1024.0
        self.log.close()


class Conn:
    def __init__(self, path):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.s.settimeout(REQUEST_TIMEOUT_S)
        try:
            self.s.connect(path)
        except OSError:
            self.s.close()
            raise
        self.buf = bytearray()

    def send(self, line):
        self.s.sendall(line)

    def pop_line(self):
        """The next complete response line received, or None."""
        i = self.buf.find(b"\n")
        if i < 0:
            return None
        line = bytes(self.buf[:i])
        del self.buf[:i + 1]
        return line

    def feed(self):
        data = self.s.recv(1 << 16)
        if not data:
            raise OSError("eventorder serve closed the connection")
        self.buf += data

    def recv_line(self):
        while True:
            line = self.pop_line()
            if line is not None:
                return line
            self.feed()

    def close(self):
        self.s.close()


class Responses:
    """Every response, reduced to what verification needs: the first one
    per program in full, and any later one that differs from it."""

    def __init__(self):
        self.first = {}
        self.other = []

    def add(self, pid, line):
        if pid not in self.first:
            self.first[pid] = line
        elif line != self.first[pid]:
            self.other.append((pid, line))

    def verify(self, d):
        """Compares every response with the seed engine's answers;
        returns the number of wrong or error responses."""
        ids = sorted(self.first)
        parts = [ids[i::WORKERS] for i in range(WORKERS)]
        procs = []
        for i, part in enumerate(parts):
            path = os.path.join(d, "ref%d.txt" % i)
            with open(path, "w") as fh:
                fh.write("".join("%d\n" % p for p in part))
            procs.append(subprocess.Popen(
                [PROBE, "serve-ref", "--dir", d, "--ids", path], env=clean_env(),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
        outputs = [p.communicate() for p in procs]
        ref = {}
        for p, (out, err) in zip(procs, outputs):
            if p.returncode != 0:
                raise SetupError("probe serve-ref failed: " + err.strip())
            for line in out.splitlines():
                pid, results = line.split("\t", 1)
                ref[int(pid)] = json.loads(results)
        wrong = 0
        for pid, line in list(self.first.items()) + self.other:
            try:
                doc = json.loads(line)
                ok = (doc.get("schema") == "eventorder.response/1"
                      and doc.get("status") == "ok" and doc["results"] == ref[pid])
            except (ValueError, KeyError):
                ok = False
            wrong += not ok
        return wrong


def serve_setup(d, seed, per_conn):
    """Writes the inputs, starts the daemon and primes the hot set."""
    hot = json.loads(probe("serve-inputs", "--seed", seed, "--requests", per_conn,
                           "--dir", d))["hot"]
    with open(os.path.join(d, "programs.ndjson"), "rb") as fh:
        programs = [line.rstrip(b"\n") + b"\n" for line in fh]
    seqs = []
    for i in range(WORKERS):
        with open(os.path.join(d, "conn%d.txt" % i)) as fh:
            seqs.append([int(x) for x in fh.read().split()])
    daemon = Daemon(d)
    primed = []
    try:
        c = Conn(daemon.sock)
        for pid in range(hot):
            c.send(programs[pid])
            primed.append((pid, c.recv_line()))
        c.close()
    except OSError as e:
        daemon.stop()
        raise SetupError("priming the daemon failed: %s" % e)
    return programs, seqs, daemon, primed


def closed_loop(sock, programs, seqs, seconds, responses):
    """Each connection sends its next request when the previous answer
    arrives, until --seconds have passed.  Returns (latencies and answer
    times in answer order, wall s, requests without an answer)."""
    sel = selectors.DefaultSelector()
    conns = []
    for seq in seqs:
        c = Conn(sock)
        c.s.setblocking(False)
        c.seq, c.pos = seq, 0
        conns.append(c)
    lat, done = [], []
    t_start = time.perf_counter()

    def send_next(c):
        c.pid = c.seq[c.pos]
        c.pos += 1
        c.s.setblocking(True)
        c.sent = time.perf_counter()
        c.send(programs[c.pid])
        c.s.setblocking(False)

    lost = 0
    for c in conns:
        send_next(c)
        sel.register(c.s, selectors.EVENT_READ, c)
    while sel.get_map():
        ready = sel.select(timeout=REQUEST_TIMEOUT_S)
        if not ready:
            lost += len(sel.get_map())
            break
        for key, _ in ready:
            c = key.data
            try:
                c.feed()
                for line in iter(c.pop_line, None):
                    now = time.perf_counter()
                    lat.append(now - c.sent)
                    done.append(now - t_start)
                    responses.add(c.pid, line)
                    if now - t_start < seconds and c.pos < len(c.seq):
                        send_next(c)
                    else:
                        sel.unregister(c.s)
            except OSError:
                lost += 1
                sel.unregister(c.s)
    wall = time.perf_counter() - t_start
    for c in conns:
        c.close()
    return lat, done, wall, lost


def windows(lat, done, wall):
    """Per window of WINDOW consecutive answers: (median latency s,
    answers per second).  A run too short for one whole window is one
    window."""
    if len(lat) < WINDOW:
        return [(statistics.median(lat), len(lat) / wall)]
    out, t0 = [], 0.0
    for i in range(0, len(lat) - WINDOW + 1, WINDOW):
        t1 = done[i + WINDOW - 1]
        out.append((statistics.median(lat[i:i + WINDOW]), WINDOW / (t1 - t0)))
        t0 = t1
    return out


def serve_mixed(seed, seconds, traced, size):
    d = workdir("serve_mixed")
    per_conn = size["serve_per_conn_per_s"] * seconds
    responses = Responses()
    if not traced:
        setup_s, d, (programs, seqs, daemon, primed) = repeat_setup(
            d, size["serve_setups"], lambda sub: serve_setup(sub, seed, per_conn),
            release=lambda result: result[2].stop())
        try:
            for pid, line in primed:
                responses.add(pid, line)
            lat, done, wall, lost = closed_loop(daemon.sock, programs, seqs, seconds,
                                                responses)
        finally:
            daemon.stop()
        attempted = len(lat) + lost + len(primed)
        failed = lost + responses.verify(d)
        per_window = windows(lat, done, wall)
        log("serve_mixed: %d requests over %d connections in %.2f s (%d windows of %d), "
            "%d distinct programs" % (len(lat), WORKERS, wall, len(per_window), WINDOW,
                                      len(responses.first)))
        return attempted, failed, {
            "setup_s": setup_s,
            "latency_p50_ms": 1000.0 * statistics.median(p50 for p50, _ in per_window),
            "latency_p99_ms": 1000.0 * pct(lat, 99),
            "throughput": statistics.median(rate for _, rate in per_window),
            "peak_mem_mb": daemon.peak_mb,
        }
    # Traced: a fixed request list, sent over one connection so the daemon
    # handles it in the same order (and with the same cache hits) as the
    # in-process replays that follow.
    count = size["serve_traced_per_s"] * seconds
    _, d, (programs, seqs, daemon, primed) = repeat_setup(
        d, 1, lambda sub: serve_setup(sub, seed, per_conn))
    order = [seqs[i % WORKERS][i // WORKERS] for i in range(count)]
    rtt, answered = [], []
    try:
        for pid, line in primed:
            responses.add(pid, line)
        c = Conn(daemon.sock)
        for pid in order:
            t0 = time.perf_counter()
            c.send(programs[pid])
            line = c.recv_line()
            rtt.append(time.perf_counter() - t0)
            responses.add(pid, line)
            answered.append(line.decode())
        c.close()
    except OSError as e:
        log("serve_mixed traced: daemon stopped answering: %s" % e)
    finally:
        daemon.stop()
    ids = os.path.join(d, "order.txt")
    with open(ids, "w") as fh:
        fh.write("".join("%d\n" % p for p in order))
    # Both in-process replays must answer every request exactly as the
    # daemon did; a response that differs is a failed operation.
    replays, mismatched = [], 0
    for t in (0, 1):
        replayed = os.path.join(d, "replay%d.ndjson" % t)
        out = probe("serve-replay", "--dir", d, "--ids", ids, "--trace", t, "--out", replayed)
        times, doc = out.splitlines()[-2:]
        replays.append(([float(x) for x in times.split()], json.loads(doc)))
        with open(replayed) as fh:
            lines = fh.read().splitlines()
        mismatched += count - len(lines) + sum(a != b for a, b in zip(answered, lines))
    failed = count - len(rtt) + responses.verify(d) + mismatched
    (plain, _), (_, doc) = replays
    n = doc["ops"]
    log("serve_mixed traced: %d requests, daemon round trip %.4f ms/op" % (n, 1000.0 * sum(rtt) / n))
    report_spans(doc, n)
    tracing_report(sum(plain) / n, doc, n)
    hits, misses = doc["cache_memory_hits"], doc["cache_misses"]
    memo = doc["reach_memo_hits"] + doc["reach_memo_misses"]
    log("  cache: %d memory hits of %d lookups; reach memo: %d hits of %d lookups"
        % (hits, hits + misses, doc["reach_memo_hits"], memo))
    metrics = {name: layer_ms(doc, n, span) for name, span in (
        ("api.decode_ms", "api.decode"), ("prog.interp_ms", "prog.interp"),
        ("model.execution_ms", "model.execution"),
        ("feasible.session_ms", "feasible.session"),
        ("core.relations_ms", "core.relations"), ("race.races_ms", "race.races"),
        ("core.pair_ms", "core.pair"), ("api.render_ms", "api.render"))}
    metrics.update({
        "server.overhead_ms": (1000.0 * sum(rtt) - sum(plain[:len(rtt)])) / max(1, len(rtt)),
        "feasible.cache_hit_ratio": hits / max(1, hits + misses),
        "feasible.cache_lookups": (hits + misses) / n,
        "feasible.enum_nodes": doc["enum_nodes"] / n,
        "feasible.reach_memo_hit_ratio": doc["reach_memo_hits"] / max(1, memo),
        "feasible.reach_memo_lookups": memo / n,
    })
    for k in ("tier_hits_approx", "tier_hits_reach", "tier_hits_sat", "tier_hits_enum",
              "escalations"):
        metrics["triage." + k] = doc[k] / n
    return 3 * n + len(primed), failed, metrics


# ------------------------------------------------------------------ #
# sat_reductions                                                      #
# ------------------------------------------------------------------ #

def sat_setup(d, times, seed, cycles, size):
    """Returns (the seconds of each set-up, instance directory, instance
    ids).  The first SAT_WARMUP set-ups of the process are not timed: in
    a fresh process they ran up to 3x slower while its heap grew."""
    args = ["sat-inputs", "--seed", seed, "--cycles", cycles]
    if size["sat_templates"]:
        args += ["--templates", size["sat_templates"]]
    setup_times, d = probe_setup(d, SAT_WARMUP + times, *args)
    with open(os.path.join(d, "sat.manifest")) as fh:
        return setup_times[SAT_WARMUP:], d, [line.split()[0] for line in fh if line.strip()]


def sat_expected(d):
    """DPLL's verdict per instance: MHB(a,b) iff unsat, CHB(b,a) iff sat."""
    out = probe("sat-ref", "--dir", d)
    return {int(i): v == "unsat" for i, v in (line.split() for line in out.splitlines())}


def sat_reductions(seed, seconds, traced, size):
    root = workdir("sat_reductions")
    # About twice the cycles --seconds needs at ~3 s a cycle: enough for a
    # faster build, without writing thousands of unused files.
    cycles = max(2, seconds // 2 + 1)
    if not traced:
        before, d, manifest = sat_setup(root, size["sat_setups"], seed, cycles, size)
        per_cycle = len(manifest) // cycles
        lat, rss, outputs, rates = [], [], [], []
        t_start = time.perf_counter()
        # Whole cycles only, so every run measures the same instance mix.
        for start in range(0, len(manifest), per_cycle):
            t_cycle = time.perf_counter()
            for i in manifest[start:start + per_cycle]:
                out = os.path.join(d, "%s.json" % i)
                elapsed, peak, rc = timed_child(
                    [EVENTORDER, "batch", os.path.join(d, "%s.eotrace" % i),
                     "--engine", "sat", "--max-events", "200", "--format", "json",
                     "mhb:a:b", "chb:b:a"], out)
                lat.append(elapsed)
                rss.append(peak)
                outputs.append((int(i), out, rc))
            rates.append(per_cycle / (time.perf_counter() - t_cycle))
            if time.perf_counter() - t_start >= seconds:
                break
        wall = time.perf_counter() - t_start
        # The ~50 ms set-up once more, into unused directories.  Back-to-back
        # repetitions all see the host as it is at that moment; the median
        # of both groups spans two moments ~20 s apart.
        again = os.path.join(root, "again")
        os.makedirs(again)
        after, _, _ = sat_setup(again, size["sat_setups"], seed, cycles, size)
        expected = sat_expected(d)
        failed = 0
        for i, out, rc in outputs:
            try:
                with open(out) as fh:
                    doc = json.load(fh)
                mhb, chb = (r["holds"] for r in doc["results"])
                ok = (rc == 0 and doc["status"] == "ok"
                      and all(r["status"] == "ok" for r in doc["results"])
                      and mhb == expected[i] and chb == (not expected[i]))
            except (ValueError, KeyError, TypeError):
                ok = False
            failed += not ok
        log("sat_reductions: %d instances (%d cycles of %d) in %.2f s"
            % (len(lat), len(lat) // per_cycle, per_cycle, wall))
        return len(outputs), failed, {
            "setup_s": statistics.median(before + after),
            "latency_p50_ms": 1000.0 * statistics.median(lat),
            "latency_p99_ms": 1000.0 * pct(lat, 99),
            "throughput": statistics.median(rates),
            "peak_mem_mb": max(rss),
        }
    _, d, manifest = sat_setup(root, 1, seed, size["sat_traced_cycles"], size)
    expected = sat_expected(d)
    count = len(manifest)
    replays = []
    for t in (0, 1):
        out = probe("sat-replay", "--dir", d, "--count", count, "--trace", t).splitlines()
        verdicts = [line.split() for line in out[:-1]]
        replays.append((verdicts, json.loads(out[-1])))
    failed = attempted = 0
    for verdicts, _ in replays:
        for i, mhb, chb in verdicts:
            unsat = expected[int(i)]
            attempted += 1
            failed += (mhb, chb) != (json.dumps(unsat), json.dumps(not unsat))
    (_, plain), (_, doc) = replays
    n = doc["ops"]
    log("sat_reductions traced: %d instances" % n)
    report_spans(doc, n)
    tracing_report(plain["wall_ms"] / n, doc, n)
    metrics = {name: layer_ms(doc, n, span) for name, span in (
        ("prog.load_ms", "prog.load"), ("model.execution_ms", "model.execution"),
        ("feasible.skeleton_ms", "feasible.skeleton"), ("encode.build_ms", "encode.build"),
        ("sat.solve_ms", "sat.solve"))}
    metrics.update({
        "encode.vars": doc["encoder_vars"] / n,
        "encode.clauses": doc["encoder_clauses"] / n,
        "sat.conflicts": doc["solver_conflicts"] / n,
        "sat.propagations": doc["solver_propagations"] / n,
    })
    return attempted, failed, metrics


# ------------------------------------------------------------------ #

RUNNERS = {"stream_mesh": stream_mesh, "serve_mixed": serve_mixed,
           "sat_reductions": sat_reductions}


def host_steal_s():
    """CPU time the hypervisor took from this machine so far (0 where
    /proc/stat does not say)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_workload(workload, seed, seconds, traced, size):
    """Returns the result object of one run."""
    env = run_environment()
    log("environment: " + json.dumps(env))
    steal, t0 = host_steal_s(), time.perf_counter()
    attempted, failed, values = RUNNERS[workload](seed, seconds, traced, size)
    log("host steal: %.2f CPU s in this run's %.1f s" % (host_steal_s() - steal,
                                                         time.perf_counter() - t0))
    units = PER_LAYER if traced else END_TO_END
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def smoke():
    """Every workload at a tiny size, in both modes; the result names must
    be the ones BENCHMARK.json declares."""
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    bad = []
    for workload in WORKLOADS:
        for traced in (0, 1):
            result = run_workload(workload, 1, 1, traced, SIZES["smoke"])
            log(json.dumps(result))
            if not result["correct"] or set(result["metrics"]) != declared[traced]:
                bad.append("%s --trace %d" % (workload, traced))
    if bad:
        log("smoke FAILED: " + ", ".join(bad))
        return 1
    log("smoke ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not a.smoke and a.workload is None:
        ap.error("--workload is required")
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")
    # A SIGTERM unwinds through the finally blocks that stop the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        if a.smoke:
            return smoke()
        result = run_workload(a.workload, a.seed, a.seconds, a.trace, SIZES["full"])
    except SetupError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
