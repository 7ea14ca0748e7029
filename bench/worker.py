"""Runs one benchmark workload in a fresh process and writes its result.

``run.py`` starts this file as a child, so each run's peak RSS is that of
a fresh process. It is not meant to be started by hand; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import sploop.cli  # noqa: E402  (imported first so later CLI starts find its bytecode)
from sploop import QIndex, SpSieve, build_sieve  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

# The tail percentile of each workload: the highest of p50, p75, p90, p95,
# p99, p99.5, p99.9, p99.95 and p99.99 that leaves at least ten samples
# beyond it. It is fixed per workload, so a faster program that fits more
# operations into a run is still measured at the same percentile. On the
# library workloads it is taken over each round's 3996 queries (p99.5, 19
# beyond it) and the run reports the median over its rounds: a p99.9 over
# the whole run rests on a few dozen Pollard-rho factorisations and on the
# host's slow spells, and it moved past its bound between sets of runs. On
# cli-1e7 it is taken over all of a run's cached invocations.
TAIL_PERCENTILE = {"build-1e8": 99.5, "session-1e8": 99.5, "cli-1e7": 75}
ROUND_TAIL = {"build-1e8", "session-1e8"}  # tail per round, median over rounds
QUERY_BLOCKS = {"build-1e8": 444, "session-1e8": 444}  # nine queries a block
COLD_PER_ROUND = 2  # uncached CLI invocations per round
VERIFY_PER_ROUND = 2  # verify --suite all invocations per round
PROBES = 5  # repetitions of each CLI layer probe
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "batch_s": "s"}


def min_ops(name: str) -> int:
    """Operations a run makes at least: ten beyond the tail percentile.
    A tail taken per round needs no minimum over the run."""
    if name in ROUND_TAIL:
        return 0
    return round(10 / (1 - TAIL_PERCENTILE[name] / 100))


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted(samples)[max(math.ceil(p / 100 * len(samples)) - 1, 0)]


class Record:
    """Samples and failure counts of one measuring pass."""

    def __init__(self):
        self.samples = defaultdict(list)  # end-to-end samples
        self.layers = defaultdict(list)  # seconds per call, by layer
        self.cache_sha256 = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def gate(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.fail("; ".join(problems))


def timed(tracer, rec, name, fn):
    """Time one call into a layer, inside a span when tracing; return
    (result, seconds) and keep the seconds as a sample of that layer."""
    t0 = time.perf_counter()
    if tracer is None:
        result = fn()
    else:
        with tracer.span(name):
            result = fn()
    seconds = time.perf_counter() - t0
    rec.layers[name].append(seconds)
    return result, seconds


def root(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def leaves_untouched(path, fn):
    """Run fn; return its result and whether the file at path kept its
    inode and mtime, that is, whether a cached CLI call used the cache."""
    before = os.stat(path)
    result = fn()
    after = os.stat(path)
    return result, (before.st_ino, before.st_mtime_ns) == (after.st_ino, after.st_mtime_ns)


# -- library pieces -------------------------------------------------------


def query_round(rng, index, sieve, blocks, tracer, rec) -> list[float]:
    """blocks * 9 seeded point queries, one at a time; returns each latency in ms."""
    plan = wl.query_plan(rng, index, sieve, blocks)
    results = []
    pc = time.perf_counter
    with root(tracer, "op"):
        for layer, fn, args in plan:
            t0 = pc()
            try:
                if tracer is None:
                    res = fn(*args)
                else:
                    with tracer.span(layer):
                        res = fn(*args)
            except Exception as exc:  # counted, the run goes on
                res = exc
            results.append((res, pc() - t0))
    latencies = []
    for i, ((layer, _, args), (res, seconds)) in enumerate(zip(plan, results)):
        rec.attempted += 1
        rec.layers[layer].append(seconds)
        latencies.append(seconds * 1e3)
        if isinstance(res, Exception):
            rec.fail(f"{layer}{args} raised {res!r}")
        elif i % wl.CHECK_EVERY == 0 and not wl.query_ok(layer, args, res, sieve, index):
            rec.fail(f"{layer}{args} = {res!r} disagrees with the independent route")
    return latencies


def add_queries(samples, latencies, name) -> None:
    """Keep one round's query latencies, and the round's tail."""
    samples["op_ms"] += latencies
    samples["op_tail_ms"].append(percentile(latencies, TAIL_PERCENTILE[name]))


def scan(step, index, sieve, tracer, rec, root_name=None) -> float:
    """One scan of the battery, inside the root span root_name if given,
    then checked outside it; returns the scan's time in seconds."""
    layer, call, _, check = step
    outer = root(tracer, root_name) if root_name else contextlib.nullcontext()
    try:
        with outer:
            res, seconds = timed(tracer, rec, layer, lambda: call(index, sieve))
    except Exception as exc:
        res, seconds = exc, 0.0
    rec.attempted += 1
    if isinstance(res, Exception) or not check(res, index, sieve):
        rec.fail(f"{layer} gave {res!r:.200}")
    return seconds


# -- workloads ------------------------------------------------------------
#
# Each round samples every end-to-end metric of its workload once or more,
# so the samples of each metric spread over the whole run and their medians
# average out the machine's slow and fast spells.


class Workload:
    """A workload runs rounds; ``sieve`` and ``index`` are the last ones it
    made ready, and ``cache`` is a cache file at its limit."""

    def start(self, tracer, rec):
        """Once per measuring pass, before its first round."""

    def complete(self, rec) -> bool:
        """Whether the pass has sampled everything it reports."""
        return True

    def batch_s(self, rec) -> float:
        return statistics.median(rec.samples["batch_s"])


class BuildWorkload(Workload):
    """Cold library start: build, index, then save and load the cache."""

    def __init__(self, limit, rng, rundir):
        self.limit, self.rng = limit, rng
        self.cache = os.path.join(rundir, "build.cache")
        self.sieve = self.index = None

    def round(self, tracer, rec):
        s = rec.samples
        self.sieve = self.index = None
        with root(tracer, "setup"):
            sieve, t_build = timed(tracer, rec, "sieve.build", lambda: build_sieve(self.limit))
            index, t_index = timed(tracer, rec, "sieve.qindex", lambda: QIndex.from_sieve(sieve))
        s["setup_s"].append(t_build + t_index)
        rec.gate(wl.index_gates(self.limit, sieve, index))
        add_queries(s, query_round(self.rng, index, sieve, QUERY_BLOCKS["build-1e8"], tracer, rec),
                    "build-1e8")
        built = index.elements
        with root(tracer, "batch"):
            _, t_save = timed(tracer, rec, "sieve.save", lambda: sieve.save(self.cache))
            # The load models a later process: the built sieve is gone by then.
            del sieve, index
            loaded, t_load = timed(tracer, rec, "sieve.load", lambda: SpSieve.load(self.cache))
            index, t_index = timed(tracer, rec, "sieve.qindex", lambda: QIndex.from_sieve(loaded))
        s["batch_s"].append(t_save + t_load + t_index)
        problems, digest = wl.cache_gates(self.limit, self.cache)
        if not np.array_equal(index.elements, built):
            problems.append("round-tripped flags differ from the built flags")
        rec.gate(problems)
        rec.cache_sha256 = digest
        self.sieve, self.index = loaded, index


class SessionWorkload(Workload):
    """In-process session on a cache prepared untimed: each round loads it,
    answers point queries and runs the next scan of the battery."""

    def __init__(self, limit, rng, rundir):
        self.limit, self.rng = limit, rng
        self.cache = os.path.join(rundir, "session.cache")
        self.sieve = self.index = None
        self.steps, self.next_step = None, 0

    def start(self, tracer, rec):
        problems, rec.cache_sha256 = wl.cache_gates(self.limit, self.cache)
        rec.gate(problems)
        self.next_step = 0

    def complete(self, rec) -> bool:
        return all(layer in rec.layers for layer, *_ in self.steps)

    def batch_s(self, rec) -> float:
        """The whole battery: the sum of each scan's median."""
        return sum(statistics.median(rec.layers[layer]) for layer, *_ in self.steps)

    def round(self, tracer, rec):
        s = rec.samples
        self.sieve = self.index = None
        with root(tracer, "setup"):
            sieve, t_load = timed(tracer, rec, "sieve.load", lambda: SpSieve.load(self.cache))
            index, t_index = timed(tracer, rec, "sieve.qindex", lambda: QIndex.from_sieve(sieve))
        s["setup_s"].append(t_load + t_index)
        add_queries(s, query_round(self.rng, index, sieve, QUERY_BLOCKS["session-1e8"], tracer, rec),
                    "session-1e8")
        rec.gate(wl.index_gates(self.limit, sieve, index))
        if self.steps is None:
            self.steps = wl.battery(index, sieve)
        step = self.steps[self.next_step % len(self.steps)]
        self.next_step += 1
        scan(step, index, sieve, tracer, rec, "batch")
        self.sieve, self.index = sieve, index


class CliWorkload(Workload):
    """``sploop`` as a subprocess at the default limit."""

    def __init__(self, limit, rng, rundir):
        self.limit, self.rng = limit, rng
        self.cache = os.path.join(rundir, "cli.cache")
        self.env = wl.cli_env()
        self.sieve = self.index = None
        self.hits = []
        self.cold_count = 0

    def invoke(self, tracer, rec, argv, check):
        """One CLI call; returns its wall time in ms."""
        proc, seconds = timed(tracer, rec, "cli.invoke", lambda: subprocess.run(
            argv, capture_output=True, text=True, env=self.env, timeout=120))
        rec.attempted += 1
        try:
            ok = check(proc.returncode, json.loads(proc.stdout))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            ok, proc.stderr = False, f"{proc.stderr} {exc!r}"
        if not ok:
            rec.fail(f"{argv[3:]} exit {proc.returncode}: {proc.stdout[:200]!r} "
                     f"{proc.stderr[-300:]!r}")
        return seconds * 1e3

    def start(self, tracer, rec):
        if self.index is None:
            # Reference answers come from a build, not from the cache file.
            self.sieve = build_sieve(self.limit)
            self.index = QIndex.from_sieve(self.sieve)

    def round(self, tracer, rec):
        s = rec.samples
        want = wl.SP_COUNT[self.limit]
        with root(tracer, "setup"):
            ms = self.invoke(tracer, rec, wl.cli_argv(self.limit, None, "build", "--out", self.cache),
                             lambda code, out: code == 0 and out["sp_count"] == want)
        s["setup_s"].append(ms / 1e3)
        problems, rec.cache_sha256 = wl.cache_gates(self.limit, self.cache)
        rec.gate(problems)
        kinds = list(wl.CACHED_COMMANDS)
        self.rng.shuffle(kinds)
        with root(tracer, "op"):
            for kind in kinds:
                args, check = wl.cli_command(kind, self.rng, self.index, self.sieve)
                argv = wl.cli_argv(self.limit, self.cache, *args)
                ms, hit = leaves_untouched(self.cache, lambda: self.invoke(tracer, rec, argv, check))
                s["op_ms"].append(ms)
                self.hits.append(hit)
        with root(tracer, "cold"):
            for _ in range(COLD_PER_ROUND):
                kind = wl.COLD_COMMANDS[self.cold_count % len(wl.COLD_COMMANDS)]
                self.cold_count += 1
                args, check = wl.cli_command(kind, self.rng, self.index, self.sieve)
                s["cold_ms"].append(self.invoke(tracer, rec, wl.cli_argv(self.limit, None, *args),
                                                check))
        with root(tracer, "batch"):
            for _ in range(VERIFY_PER_ROUND):
                ms = self.invoke(tracer, rec, wl.cli_argv(self.limit, self.cache, "verify", "--suite", "all"),
                                 wl.verify_all_ok)
                s["batch_s"].append(ms / 1e3)


WORKLOADS = {"build-1e8": BuildWorkload, "session-1e8": SessionWorkload,
             "cli-1e7": CliWorkload}


def measure(w, tracer, seconds, need=0) -> Record:
    """Run whole rounds while at least half a round still fits in the time,
    and until the pass has made ``need`` operations (and, for the session,
    every scan has run once)."""
    rec = Record()
    w.start(tracer, rec)
    start, durations = time.perf_counter(), []
    while True:
        t0 = time.perf_counter()
        w.round(tracer, rec)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(rec.samples["op_ms"]) >= need and w.complete(rec)
                and elapsed + statistics.median(durations) / 2 >= seconds):
            return rec


def end_to_end(name, w, rec, peak_rss_mb) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same numbers under their
    per-workload names (see README.md), with the tail's percentile and n."""
    s = rec.samples
    med = statistics.median
    p = TAIL_PERCENTILE[name]
    if name in ROUND_TAIL:
        tail = med(s["op_tail_ms"])
        of = (f"median over {len(s['op_tail_ms'])} rounds of p{p:g} of "
              f"{9 * QUERY_BLOCKS[name]}")
    else:
        tail = percentile(s["op_ms"], p)
        of = f"p{p:g} of {len(s['op_ms'])}"
    e2e = {"setup_s": med(s["setup_s"]), "peak_rss_mb": peak_rss_mb,
           "op_p50_ms": med(s["op_ms"]), "op_tail_ms": tail, "batch_s": w.batch_s(rec)}
    named = {"setup_s": [e2e["setup_s"], "s"], "peak_rss_mb": [peak_rss_mb, "MB"],
             "failed_ratio": [rec.failed / max(rec.attempted, 1), "ratio"]}
    if name == "build-1e8":
        named["query_tail_us"] = [e2e["op_tail_ms"] * 1e3, "us", of]
        named["cache_rt_s"] = [e2e["batch_s"], "s"]
    elif name == "session-1e8":
        named["query_p50_us"] = [e2e["op_p50_ms"] * 1e3, "us"]
        named["query_tail_us"] = [e2e["op_tail_ms"] * 1e3, "us", of]
        named["scan_s"] = [e2e["batch_s"], "s"]
    else:
        named["cli_cached_p50_ms"] = [e2e["op_p50_ms"], "ms"]
        named["cli_cached_tail_ms"] = [e2e["op_tail_ms"], "ms", of]
        named["cli_cold_p50_ms"] = [med(s["cold_ms"]), "ms"]
        named["verify_all_s"] = [e2e["batch_s"], "s"]
    return e2e, named


# -- traced run -----------------------------------------------------------


def cli_probes(w, tracer, rec, index) -> None:
    """Interpreter start, import and in-process dispatch of the CLI."""
    env = wl.cli_env()
    code = ("import time; t = time.perf_counter(); import sploop.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(PROBES):
        timed(tracer, rec, "cli.interp_start", lambda: subprocess.run(
            [sys.executable, "-c", "pass"], env=env, check=True))
        with root(tracer, "cli.import"):
            proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True)
        rec.layers["cli.import"].append(float(proc.stdout))
        a, b = (int(index.elements[w.rng.randint(0, len(index) - 1)]) for _ in range(2))
        argv = ["--limit", str(w.limit), "--cache", w.cache, "op", str(a), str(b)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code_, _ = timed(tracer, rec, "cli.dispatch", lambda: sploop.cli.dispatch(argv))
        rec.attempted += 1
        if code_ != 0 or json.loads(buf.getvalue())["result"] != wl.brute_successor(abs(a - b)):
            rec.fail(f"dispatch {argv} gave {code_} {buf.getvalue()!r}")


def sweep(w, tracer, rec, have) -> None:
    """Call every public function the per-layer metrics name that the
    workload's own rounds did not reach (``have`` holds the layers they did),
    under the root span 'sweep' when tracing."""
    with root(tracer, "sweep"):
        if "sieve.build" not in have:
            timed(tracer, rec, "sieve.build", lambda: build_sieve(w.limit))
        sieve, index = w.sieve, w.index
        timed(tracer, rec, "sieve.prefix", lambda: SpSieve(sieve.limit, sieve.flags))
        if "sieve.save" not in have:
            spare = w.cache + ".sweep"
            timed(tracer, rec, "sieve.save", lambda: sieve.save(spare))
            os.remove(spare)
        if "sieve.load" not in have:
            loaded, _ = timed(tracer, rec, "sieve.load", lambda: SpSieve.load(w.cache))
            timed(tracer, rec, "sieve.qindex", lambda: QIndex.from_sieve(loaded))
            del loaded
        if "sieve.successor" not in have:
            query_round(w.rng, index, sieve, QUERY_BLOCKS["session-1e8"], tracer, rec)
        if "theorems.scan_bertrand" not in have:
            for step in wl.battery(index, sieve):
                scan(step, index, sieve, tracer, rec)
        for layer, thunk, check in wl.verify_extras(index, sieve):
            res, _ = timed(tracer, rec, layer, thunk)
            rec.attempted += 1
            if not check(res):
                rec.fail(f"{layer} gave {res!r:.200}")
        cli_probes(w, tracer, rec, index)
        if "cli.invoke" not in have:
            w.hits = []
            for _ in range(3):
                argv = wl.cli_argv(w.limit, w.cache, "succ", w.rng.randint(0, index.max_element - 1))
                _, hit = leaves_untouched(w.cache, lambda: timed(
                    tracer, rec, "cli.invoke", lambda: subprocess.run(
                        argv, env=wl.cli_env(), check=True, capture_output=True)))
                w.hits.append(hit)


def per_layer(name, tracer, w, layers, untraced, traced) -> tuple[dict, list]:
    """Per-layer metrics and one report line per metric, with the layer's
    share of the blocking steps it sits on.

    Times are medians of the untraced calls (tracemalloc slows calls that
    allocate many small objects several-fold). Memory peaks, self times
    and shares come from the spans of the traced pass.
    """
    own = tracer.self_times()
    parent = {s[0]: s[1] for s in tracer.spans}
    names = {s[0]: s[2] for s in tracer.spans}

    def root_of(sid):
        while parent[sid] is not None:
            sid = parent[sid]
        return names[sid]

    selves, peaks = defaultdict(float), defaultdict(list)
    under = defaultdict(lambda: defaultdict(float))  # layer -> root -> self time
    root_total = defaultdict(float)
    for sid, par, layer, start, end, peak, base in tracer.spans:
        selves[layer] += own[sid]
        peaks[layer].append((peak - base) / 2**20)
        if par is None:
            root_total[layer] += end - start
        else:
            under[layer][root_of(sid)] += own[sid]

    def share(layer):
        parts = [f"{100 * t / root_total[r]:.1f}% of {r}"
                 for r, t in sorted(under[layer].items()) if r != "sweep"]
        return ("share " + ", ".join(parts)) if parts else "reached only by the sweep: no share"

    med = statistics.median
    metrics, notes = {}, {}
    for layer in wl.QUERY_LAYERS:
        metrics[f"{layer}_us"] = (med(layers[layer]) * 1e6, "us")
        notes[f"{layer}_us"] = share(layer)
    for layer in ("sieve.build", "sieve.prefix", "sieve.qindex", "sieve.save", "sieve.load"):
        metrics[f"{layer}_s"] = (med(layers[layer]), "s")
        notes[f"{layer}_s"] = share(layer)
    for layer in ("sieve.build", "sieve.qindex", "sieve.load"):
        metrics[f"{layer}_peak_mb"] = (max(peaks[layer]), "MB")
        notes[f"{layer}_peak_mb"] = "tracemalloc peak of the call, above what was allocated before it"
    metrics["sieve.cache_bytes"] = (os.path.getsize(w.cache), "bytes")
    notes["sieve.cache_bytes"] = "size of the v1 cache file"
    for layer, _, counts, _ in wl.battery(w.index, w.sieve):
        t = med(layers[layer])
        for unit, n in counts.items():
            metrics[f"{layer}_{unit}"] = (n, "count")
            notes[f"{layer}_{unit}"] = "work per battery"
        per_call = layer == "loop.fixed_point"
        metrics[f"{layer}_s"] = (t / n if per_call else t, "s")
        metrics[f"{layer}_{unit}_per_s"] = (n / t, "1/s")
        notes[f"{layer}_{unit}_per_s"] = "work per second"
        notes[f"{layer}_s"] = ("per call; " if per_call else "") + share(layer)
    for layer in ("loop.cayley_table", "loop.nonassoc", "theorems.find_prime_ap",
                  "theorems.verify_bullet_chain"):
        metrics[f"{layer}_s"] = (med(layers[layer]), "s")
        notes[f"{layer}_s"] = share(layer)
    for layer in ("cli.interp_start", "cli.import", "cli.dispatch"):
        ms = med(layers[layer]) * 1e3
        metrics[f"{layer}_ms"] = (ms, "ms")
        notes[f"{layer}_ms"] = (f"share {100 * ms / untraced['op_p50_ms']:.1f}% of a cached "
                                f"invocation" if name == "cli-1e7"
                                else "reached only by the sweep: no share")
    metrics["cli.cache_hit_ratio"] = (sum(w.hits) / len(w.hits), "ratio")
    notes["cli.cache_hit_ratio"] = f"of {len(w.hits)} cached invocations, those that left the cache file untouched"
    for key in ("setup_s", "op_p50_ms", "op_tail_ms", "batch_s"):
        metrics[f"trace.{key}_ratio"] = (traced[key] / untraced[key], "ratio")
        notes[f"trace.{key}_ratio"] = (f"overhead: traced {traced[key]:.6g} minus untraced "
                                       f"{untraced[key]:.6g} = {traced[key] - untraced[key]:.6g}")
    lines = [f"  {k:44s} {v:>14.6g} {u:6s} {notes[k]}" for k, (v, u) in metrics.items()]
    lines.append(f"  self time by span name, traced pass and sweep ({len(tracer.spans)} spans):")
    lines += [f"    {layer:40s} {t:12.6f} s" for layer, t in sorted(selves.items())]
    return metrics, lines


# -- entry ----------------------------------------------------------------


def prepare(limit, rundir) -> None:
    """Untimed: build and save the cache the session workload loads."""
    build_sieve(limit).save(os.path.join(rundir, "session.cache"))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--limit", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--prepare", action="store_true")
    args = ap.parse_args()
    if args.prepare:
        prepare(args.limit, args.dir)
        return
    rng = random.Random(args.seed)
    w = WORKLOADS[args.workload](args.limit, rng, args.dir)
    result = {"numpy": np.__version__}
    if not args.trace:
        rec = measure(w, None, args.seconds, min_ops(args.workload))
        if args.workload == "cli-1e7":
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        e2e, named = end_to_end(args.workload, w, rec, peak)
        result.update(metrics={k: [e2e[k], unit] for k, unit in E2E_UNITS.items()},
                      named=named, lines=[],
                      samples={k: v for k, v in rec.samples.items() if len(v) <= 1000})
    else:
        # A traced run reports no end-to-end tail, so its passes need no
        # minimum of operations: under tracing a build takes five times as long.
        rec_a = measure(w, None, args.seconds / 2)
        untraced, _ = end_to_end(args.workload, w, rec_a, 0.0)
        have = set(rec_a.layers)
        sweep(w, None, rec_a, have)
        tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
        rec = measure(w, tracer, args.seconds / 2)
        traced, _ = end_to_end(args.workload, w, rec, 0.0)
        sweep(w, tracer, rec, have)
        tracer.close()
        tracer.dump(os.path.join(args.dir, "spans.json"))
        metrics, lines = per_layer(args.workload, tracer, w, rec_a.layers, untraced, traced)
        rec.attempted += rec_a.attempted
        rec.failed += rec_a.failed
        rec.errors += rec_a.errors
        result.update(metrics={k: list(v) for k, v in metrics.items()}, named={},
                      lines=lines)
    result.update(attempted=rec.attempted, failed=rec.failed, errors=rec.errors,
                  cache_sha256=rec.cache_sha256)
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
