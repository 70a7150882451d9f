#!/usr/bin/env python3
"""The vbadet benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds `vbadet` and the `perfbench` helper
from source, generates the workload's inputs from the seed, trains one
model with `vbadet train` defaults, and records a `--jobs 1` oracle; all
of that is set-up and untimed. Then it measures for S seconds and prints,
as the last line of stdout, one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`). Details and the workload-property
report go to stderr. Exits 1 after printing if any output differed from
the oracle.

Workloads:
  paper_batch    Table II corpus (2,537 documents, ~940 MB) through
                 `vbadet scan --jobs 2`.
  triage_sweep   16,000 small files (macro-free, junk, damaged, a few
                 intact macro documents) through
                 `vbadet scan --jobs 2 --isolate --ladder --journal`.
  gateway_serve  `vbadet serve` defaults; a mail gateway opening a fresh
                 Unix-socket connection per attachment, a third of them
                 campaign duplicates. Open loop at a fixed rate, then a
                 closed loop over 2 connections.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("paper_batch", "triage_sweep", "gateway_serve")
# Open-loop arrival rate. The open loop takes 5/6 of the run, so a 30 s
# run sends 1,000 requests: the fewest that support a p99 with ten
# samples beyond it.
OPEN_RATE = 40.0
REPEAT_SHARE = 1 / 3
# Set-up time is a median over this many launches (batch) or daemon
# spawns (serve) per run.
SETUP_LAUNCHES = 31
SERVE_SPAWNS = 15
CONNECTIONS = 2
REPLY_TIMEOUT_S = 30.0

UNITS = {
    "setup_s": "s",
    "docs_per_s": "docs/s",
    "mb_per_s": "MB/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rps": "req/s",
    "peak_rss_mb": "MB",
    "verdict_accuracy": "ratio",
    "read.ms": "ms",
    "read.mb_per_s": "MB/s",
    "cache.digest_ms": "ms",
    "cache.digest_mb_per_s": "MB/s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "zip.parse_ms": "ms",
    "zip.inflate_ms": "ms",
    "zip.inflate_mb_per_s": "MB/s",
    "ole.parse_ms": "ms",
    "ovba.project_ms": "ms",
    "ovba.mb_per_s": "MB/s",
    "ovba.salvage_ms": "ms",
    "ovba.salvage_yield": "ratio",
    "vba.lex_ms": "ms",
    "vba.lex_mb_per_s": "MB/s",
    "features.pass_ms": "ms",
    "features.mb_per_s": "MB/s",
    "ml.predict_ms": "ms",
    "ml.predict_calls": "count",
    "scan.doc_ms": "ms",
    "scan.other_ms": "ms",
    "trace.overhead_pct": "%",
    "isolate.ipc_ms_per_doc": "ms",
    "journal.write_ms": "ms",
    "journal.bytes": "bytes",
    "serve.connect_ms": "ms",
    "serve.reply_ms": "ms",
    "serve.shed": "count",
}
END_TO_END = ["setup_s", "docs_per_s", "mb_per_s", "p50_ms", "p99_ms", "peak_rps",
              "peak_rss_mb", "verdict_accuracy"]
PER_LAYER = [name for name in UNITS if name not in END_TO_END]
WORK_ROOT = ".perfbench_work"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- statistics


def percentile(values, p):
    """Nearest-rank percentile of `values` (p in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def supported_percentile(n, candidates=(50, 90, 95, 99, 99.9)):
    """Highest candidate percentile with at least ten samples beyond it."""
    best = None
    for p in candidates:
        rank = -(-n * p // 100)
        if n - rank >= 10:
            best = p
    return best


# ------------------------------------------------------------------- oracle


def records_by_path(stdout, paths):
    """Groups `vbadet scan` output lines by the input path they start with."""
    wanted = set(paths)
    out = {}
    for line in stdout.decode("utf-8", "replace").splitlines():
        path = line.split(": ", 1)[0]
        if path in wanted:
            out.setdefault(path, []).append(line)
    return out


def batch_failures(stdout, oracle_stdout, paths):
    """Documents whose records are missing or differ from the oracle's."""
    if stdout == oracle_stdout:
        return 0
    got = records_by_path(stdout, paths)
    want = records_by_path(oracle_stdout, paths)
    return sum(1 for p in paths if got.get(p) != want.get(p))


def reply_failed(reply, expected_outcome):
    """A serve reply fails unless it is an ok scan whose outcome equals the
    oracle's record for the document (errors, sheds, timeouts all fail)."""
    return not (
        isinstance(reply, dict)
        and reply.get("ok") is True
        and reply.get("op") == "scan"
        and reply.get("outcome") == expected_outcome
    )


def journal_outcomes(path):
    out = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record.get("event") == "done":
                out[record["path"]] = record["outcome"]
    return out


def flagged(outcome):
    return any(v["obfuscated"] for v in outcome.get("verdicts", []))


# ---------------------------------------------------------------- processes


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "vbadet-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850).returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release", "vbadet"), os.path.join(target, "release", "perfbench")


def launch(cmd, cwd, stdout=subprocess.PIPE, timeout=170):
    """Runs `cmd` to completion. Returns (stdout, exit code, wall seconds,
    CPU seconds, peak RSS in MB); CPU time (user + system) and RSS cover
    the process and every child it reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read() if stdout == subprocess.PIPE else b""
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout:
        proc.stdout.close()
    cpu = usage.ru_utime + usage.ru_stime
    return out, proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def checked(cmd, cwd):
    result = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, timeout=170)
    if result.returncode != 0:
        raise SystemExit(f"set-up step failed: {' '.join(cmd)}")


# --------------------------------------------------------------- workloads


def read_manifest(work):
    docs = []
    with open(os.path.join(work, "manifest.tsv")) as f:
        for line in f:
            path, kind, tag, label, size, src = line.rstrip("\n").split("\t")
            docs.append(
                {"path": path, "kind": kind, "tag": tag, "label": label == "1",
                 "bytes": int(size), "src": int(src)}
            )
    return docs


def batch_command(vbadet, workload, jobs, files, journal):
    """The workload's command line. Each kind of launch keeps its own
    journal file, so a set-up launch never pays for truncating a whole
    batch's journal."""
    cmd = [vbadet, "scan", "--model", "model.txt", "--jobs", str(jobs)]
    if workload == "triage_sweep":
        cmd += ["--isolate", "--ladder", "--journal", f"{journal}.jsonl"]
    return cmd + files


def outcome_kinds(records):
    """Share of each outcome kind, from grouped oracle lines or journal
    outcomes."""
    kinds = {}
    for rec in records:
        if isinstance(rec, dict):
            kind = rec["kind"]
        else:
            text = " ".join(rec)
            kind = ("failed" if "FAILED [" in text else "recovered" if "[recovered:" in text
                    else "salvaged" if "[salvaged]" in text
                    else "clean" if text.endswith("no VBA macros") else "macros")
        kinds[kind] = kinds.get(kind, 0) + 1
    total = sum(kinds.values()) or 1
    return {k: round(v / total, 4) for k, v in sorted(kinds.items())}


def property_report(workload, docs, records, repeat_share=None):
    n = len(docs)
    size = sum(d["bytes"] for d in docs)
    report = {
        "workload": workload,
        "documents": n,
        "input_mb": round(size / 1e6, 2),
        "ooxml_share": round(sum(d["kind"] == "ooxml" for d in docs) / n, 4),
        "ole_share": round(sum(d["kind"] == "ole" for d in docs) / n, 4),
        "non_office_share": round(sum(d["kind"] == "junk" for d in docs) / n, 4),
        "macro_src_bytes_per_input_mb": round(sum(d["src"] for d in docs) / (size / 1e6), 1),
        "damaged_share": round(sum(d["tag"] in ("cut", "stomped") for d in docs) / n, 4),
        "outcome_shares": outcome_kinds(records),
    }
    if repeat_share is not None:
        report["repeated_request_share"] = round(repeat_share, 4)
    log("workload properties:", json.dumps(report))


def run_batch(args, vbadet, work, docs):
    paths = [d["path"] for d in docs]
    oracle, oracle_rc, *_ = launch(batch_command(vbadet, args.workload, 1, paths, "oracle"), work)
    grouped = records_by_path(oracle, paths)
    if len(grouped) != len(paths):
        raise SystemExit("oracle run did not decide every document")
    property_report(args.workload, docs, [grouped[p] for p in paths])
    flagged_paths = {p for p, lines in grouped.items() if any(" OBFUSCATED " in l for l in lines)}
    phases = {"setup": [0, 0], "batch": [0, 0]}
    result = {"phases": phases, "metrics": {}}
    if args.trace:
        return result
    probe_cmd = batch_command(vbadet, args.workload, 2, ["probe.doc"], "probe")
    probe_oracle = launch(batch_command(vbadet, args.workload, 1, ["probe.doc"], "oracle-probe"),
                          work)[:2]
    # A launch is timed by its CPU time: user + system time of the scan
    # process and every worker it reaped. Its wall time also counts every
    # other process on the shared cores and every wait on the disk; on a
    # 2-core host with one or two busy neighbours a triage batch's wall
    # time grew 1.5x and 2.4x while its CPU time grew 2% and 6%, and runs
    # of the same code spread by half their median. Wall times go to
    # stderr; a change that only loses parallelism shows there, not in the
    # metrics.
    start = time.perf_counter()
    setup, setup_walls = [], []
    for _ in range(SETUP_LAUNCHES):
        out, rc, wall, cpu, _ = launch(probe_cmd, work)
        setup.append(cpu)
        setup_walls.append(wall)
        phases["setup"][0] += 1
        phases["setup"][1] += (out, rc) != probe_oracle

    cmd = batch_command(vbadet, args.workload, 2, paths, "batch")
    total_mb = sum(d["bytes"] for d in docs) / 1e6
    walls, cpus, rss = [], [], []
    while not walls or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        out, rc, wall, cpu, peak = launch(cmd, work)
        phases["batch"][0] += len(paths)
        phases["batch"][1] += len(paths) if rc != oracle_rc else batch_failures(out, oracle, paths)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
    n = len(paths)
    log(f"set-up launches: median wall {statistics.median(setup_walls) * 1e3:.3f} ms, "
        f"CPU {statistics.median(setup) * 1e3:.3f} ms")
    log(f"{len(walls)} batches of {n} documents; wall s: {[round(w, 3) for w in walls]}; "
        f"CPU s: {[round(c, 3) for c in cpus]}")
    # The batch is the request. A run holds 10 to 25 batches, too few for
    # any percentile above the median to have ten samples beyond it, so
    # p99_ms reports the median too, and peak_rps the median batch's rate.
    median_cpu = statistics.median(cpus)
    result["metrics"] = {
        "setup_s": statistics.median(setup),
        "docs_per_s": n / median_cpu,
        "mb_per_s": total_mb / median_cpu,
        "p50_ms": median_cpu * 1e3,
        "p99_ms": median_cpu * 1e3,
        "peak_rps": n / median_cpu,
        "peak_rss_mb": max(rss),
        "verdict_accuracy": sum((d["path"] in flagged_paths) == d["label"] for d in docs) / n,
    }
    return result


# ------------------------------------------------------------------- serve


class Daemon:
    """One `vbadet serve` process on a Unix socket inside the work dir."""

    def __init__(self, vbadet, work):
        self.sock = os.path.join(work, "d.sock")
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.log = open(os.path.join(work, "serve.log"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [vbadet, "serve", "--socket", "d.sock", "--model", "model.txt"],
            cwd=work, stdout=subprocess.DEVNULL, stderr=self.log,
        )
        # Poll without sleeping: a sleeping poller's phase decides whether
        # its first connect lands before the accept loop's first idle nap,
        # which would make the figure bimodal.
        deadline = start + 60
        while True:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise SystemExit("serve daemon did not become ready")
            try:
                if request(self.sock, "ready").get("ready") is True:
                    break
            except OSError:
                pass
        self.ready_s = time.perf_counter() - start

    def stop(self):
        """SIGTERM drain; returns (exit code, peak RSS MB of daemon and
        the workers it reaped)."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            timer = threading.Timer(60, self.proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            finally:
                timer.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mb = usage.ru_maxrss / 1024.0
        self.log.close()
        return self.proc.returncode, getattr(self, "rss_mb", 0.0)


def request(sock_path, line, timings=None):
    """One request on a fresh connection. `timings`, when given, receives
    (connect seconds, request-written-to-first-reply-byte seconds)."""
    t0 = time.perf_counter()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(REPLY_TIMEOUT_S)
        s.connect(sock_path)
        t1 = time.perf_counter()
        s.sendall(line.encode() + b"\n")
        t2 = time.perf_counter()
        buf = s.recv(65536)
        t3 = time.perf_counter()
        while buf and not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    if timings is not None:
        timings.append((t1 - t0, t3 - t2))
    return json.loads(buf)


def traffic(docs, seed, count):
    """Request sequence: unique attachments in seeded order, with about a
    third repeating an earlier attachment byte for byte."""
    rng = random.Random(seed ^ 0x5E4E)
    pool = list(range(len(docs)))
    rng.shuffle(pool)
    sent, seq = [], []
    for _ in range(count):
        if sent and rng.random() < REPEAT_SHARE:
            seq.append(rng.choice(sent))
        else:
            doc = pool[len(sent) % len(pool)]
            sent.append(doc)
            seq.append(doc)
    return seq


class Load:
    """Client threads, never more than CONNECTIONS, each opening a fresh
    connection per request, over one request sequence."""

    def __init__(self, sock, docs, oracle, seq, timed):
        self.sock, self.docs, self.oracle, self.seq = sock, docs, oracle, seq
        self.timings = [] if timed else None
        self.lock = threading.Lock()
        self.next = 0
        # (doc index, latency s, generator lateness s, failed, flagged or None)
        self.results = []

    def _claim(self):
        with self.lock:
            i = self.next
            self.next += 1
        return i

    def _one(self, i, due):
        doc_index = self.seq[i % len(self.seq)]
        path = self.docs[doc_index]["path"]
        sent = time.perf_counter()
        try:
            reply = request(self.sock, "scan " + path, self.timings)
        except (OSError, ValueError):
            reply = None
        done = time.perf_counter()
        failed = reply_failed(reply, self.oracle[path])
        with self.lock:
            self.results.append(
                (doc_index, done - due, sent - due, failed,
                 None if failed else flagged(reply["outcome"]))
            )

    def open_loop(self, count, rate):
        """`count` requests due at a fixed `rate`; each is timed from its
        due time, so a stall is charged to every request it delays."""
        t0 = time.perf_counter() + 0.05

        def worker():
            while (i := self._claim()) < count:
                due = t0 + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self._one(i, due)

        self._run(worker)

    def closed_loop(self, seconds):
        """Each connection sends its next request when the last one is
        answered, until `seconds` have passed. Returns the wall time."""
        start = time.perf_counter()
        end = start + seconds

        def worker():
            while time.perf_counter() < end:
                self._one(self._claim(), time.perf_counter())

        self._run(worker)
        return time.perf_counter() - start

    def _run(self, worker):
        threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()


def serve_counts(sock):
    histograms = request(sock, "metrics")["metrics"]["histograms"]
    return {k: histograms.get(k, {}).get("total", 0)
            for k in ("cache.hits", "cache.misses", "serve.shed")}


def serve_oracle(vbadet, work, paths):
    """Per-document outcomes of a `--jobs 1` scan under the serve policy,
    for `paths` and the warm-up document `probe.doc`."""
    journal = os.path.join(work, "oracle.jsonl")
    launch([vbadet, "scan", "--model", "model.txt", "--jobs", "1", "--journal", "oracle.jsonl",
            "probe.doc"] + paths, work, stdout=subprocess.DEVNULL)
    oracle = journal_outcomes(journal)
    if set(oracle) != set(paths) | {"probe.doc"}:
        raise SystemExit("oracle run did not decide every document")
    return oracle


def serve_session(vbadet, work, docs, oracle, seed, open_s, closed_s, timed=False):
    """Spawns a daemon, warms its workers, runs the open loop and then the
    closed loop, drains it, and returns the raw observations."""
    daemon = Daemon(vbadet, work)
    warm_failed = []

    def warm_one():
        try:
            reply = request(daemon.sock, "scan probe.doc")
        except (OSError, ValueError):
            reply = None
        warm_failed.append(reply_failed(reply, oracle["probe.doc"]))

    try:
        warm = [threading.Thread(target=warm_one) for _ in range(CONNECTIONS)]
        for t in warm:
            t.start()
        for t in warm:
            t.join()
        open_count = int(OPEN_RATE * open_s)
        seq = traffic(docs, seed, open_count + int(500 * closed_s) + 100)
        load = Load(daemon.sock, docs, oracle, seq, timed)
        before = serve_counts(daemon.sock)
        load.open_loop(open_count, OPEN_RATE)
        n_open = len(load.results)
        closed_wall = load.closed_loop(closed_s) if closed_s > 0 else 0.0
        after = serve_counts(daemon.sock)
    finally:
        rc, rss = daemon.stop()
    sent = [seq[i % len(seq)] for i in range(load.next)]
    return {
        "ready_s": daemon.ready_s,
        "drained": rc == 3,
        "rss_mb": rss,
        "warm": warm_failed,
        "open": load.results[:n_open],
        "closed": load.results[n_open:],
        "closed_wall": closed_wall,
        "timings": load.timings,
        "delta": {k: after[k] - before[k] for k in after},
        "repeat_share": 1 - len(set(sent)) / max(1, len(sent)),
    }


def serve_phases(obs, prefix=""):
    """Attempted and failed counts of one serve session's phases. A daemon
    spawn fails unless it drains and exits 3 on SIGTERM."""
    phases = {
        prefix + "spawn": [1, int(not obs["drained"])],
        prefix + "warm": [len(obs["warm"]), sum(obs["warm"])],
        prefix + "open": [len(obs["open"]), sum(r[3] for r in obs["open"])],
    }
    if obs["closed"]:
        phases[prefix + "closed"] = [len(obs["closed"]), sum(r[3] for r in obs["closed"])]
    return phases


def run_serve(args, vbadet, work, docs):
    paths = [d["path"] for d in docs]
    oracle = serve_oracle(vbadet, work, paths)
    if args.trace:
        property_report(args.workload, docs, [oracle[p] for p in paths])
        return {"phases": {}, "metrics": {}}, oracle
    ready, spawn_failed = [], 0
    for _ in range(SERVE_SPAWNS - 1):
        daemon = Daemon(vbadet, work)
        ready.append(daemon.ready_s)
        spawn_failed += daemon.stop()[0] != 3
    open_s = args.seconds * 5 / 6
    obs = serve_session(vbadet, work, docs, oracle, args.seed, open_s, args.seconds - open_s)
    ready.append(obs["ready_s"])
    phases = serve_phases(obs)
    phases["spawn"] = [SERVE_SPAWNS, spawn_failed + phases["spawn"][1]]
    property_report(args.workload, docs, [oracle[p] for p in paths], obs["repeat_share"])

    every = obs["open"] + obs["closed"]
    latencies = [r[1] * 1e3 for r in obs["open"]]
    lateness = [r[2] * 1e3 for r in obs["open"]]
    closed_ok = [r for r in obs["closed"] if not r[3]]
    # Each document counts once: the few attachments the traffic repeats
    # most would otherwise outweigh the rest.
    decided = {r[0]: r[4] for r in every if not r[3]}
    wall = obs["closed_wall"]
    supported = supported_percentile(len(latencies))
    log(f"open loop: {len(latencies)} requests at {OPEN_RATE:g}/s; latency ms p50 "
        f"{percentile(latencies, 50):.3f}, highest supported percentile p{supported} "
        f"{percentile(latencies, supported or 50):.3f}; generator lateness ms p50 "
        f"{statistics.median(lateness):.3f} max {max(lateness):.3f}")
    log(f"closed loop: {len(obs['closed'])} requests over {CONNECTIONS} connections in "
        f"{wall:.3f} s; cache deltas {obs['delta']}")
    if supported is None or supported < 99:
        log("warning: too few open-loop requests for a p99 with ten samples beyond it")
    result = {
        "phases": phases,
        "metrics": {
            "setup_s": statistics.median(ready),
            "docs_per_s": len(closed_ok) / wall,
            "mb_per_s": sum(docs[r[0]]["bytes"] for r in closed_ok) / 1e6 / wall,
            "p50_ms": percentile(latencies, 50),
            "p99_ms": percentile(latencies, 99),
            "peak_rps": len(obs["closed"]) / wall,
            "peak_rss_mb": obs["rss_mb"],
            "verdict_accuracy": sum(docs[i]["label"] == f for i, f in decided.items())
            / max(1, len(decided)),
        },
    }
    return result, oracle


# ------------------------------------------------------------------- traced


PROBE_DOCS = 300
PROBE_SECONDS = 4.0


def run_trace(args, vbadet, helper, work, docs, oracle):
    """Per-layer metrics: the helper's traced walk over the inputs, then
    client-side serve spans. For batch workloads the serve figures come
    from a short probe over a sample of the inputs."""
    if args.workload == "gateway_serve":
        serve_s = args.seconds / 2
        serve_docs = docs
    else:
        serve_s = PROBE_SECONDS
        serve_docs = random.Random(args.seed).sample(docs, min(PROBE_DOCS, len(docs)))
        oracle = serve_oracle(vbadet, work, [d["path"] for d in serve_docs])
    spans = os.path.join(WORK_ROOT, f"spans-{args.workload}.tsv")
    out = subprocess.run(
        [helper, "trace", "--workload", args.workload, "--dir", work,
         "--model", os.path.join(work, "model.txt"), "--vbadet", vbadet,
         "--seconds", str(max(1.0, args.seconds - serve_s)), "--spans", spans],
        stdout=subprocess.PIPE, timeout=170, check=True,
    ).stdout
    walk = json.loads(out.decode().strip().splitlines()[-1])
    log(f"traced walk: {walk['docs']} documents x {walk['passes']} passes; spans in {spans}")
    obs = serve_session(vbadet, work, serve_docs, oracle, args.seed, serve_s, 0, timed=True)
    hits, misses = obs["delta"]["cache.hits"], obs["delta"]["cache.misses"]
    metrics = dict(walk["metrics"])
    metrics.update({
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / max(1, hits + misses),
        "serve.connect_ms": statistics.median(t[0] for t in obs["timings"]) * 1e3,
        "serve.reply_ms": statistics.median(t[1] for t in obs["timings"]) * 1e3,
        "serve.shed": obs["delta"]["serve.shed"],
    })
    phases = {
        "walk": [walk["docs"] * walk["passes"], walk["walk_mismatches"]],
        "isolate_vs_pool": [walk["docs"] * walk["engine_runs"], walk["engine_mismatches"]],
    }
    phases.update(serve_phases(obs, "serve_"))
    return {"phases": phases, "metrics": metrics}


# --------------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    t0 = time.perf_counter()
    vbadet, helper = build()
    log(f"build {time.perf_counter() - t0:.1f} s")
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        checked([helper, "gen", "--workload", args.workload, "--seed", str(args.seed),
                 "--out", work], ".")
        checked([vbadet, "train", "--out", "model.txt"], work)
        # Write the inputs back now, not while the program is timed.
        os.sync()
        docs = read_manifest(work)
        log(f"inputs and model {time.perf_counter() - t0:.1f} s after start")
        oracle = None
        if args.workload == "gateway_serve":
            result, oracle = run_serve(args, vbadet, work, docs)
        else:
            result = run_batch(args, vbadet, work, docs)
        if args.trace:
            result = run_trace(args, vbadet, helper, work, docs, oracle)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log(f"done {time.perf_counter() - t0:.1f} s after start")

    names = PER_LAYER if args.trace else END_TO_END
    if sorted(result["metrics"]) != sorted(names):
        raise SystemExit(f"metric set mismatch: {sorted(set(names) ^ set(result['metrics']))}")
    for phase, (attempted, failed) in result["phases"].items():
        log(f"phase {phase}: attempted {attempted}, failed {failed}")
    attempted = sum(a for a, _ in result["phases"].values())
    failed = sum(f for _, f in result["phases"].values())
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": result["metrics"][k], "unit": UNITS[k]} for k in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
