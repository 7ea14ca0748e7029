#!/usr/bin/env python3
"""Fast self-test of the benchmark at a small limit.

    python3 bench/selftest.py

Runs every workload once at limit 500000 (untraced) and one traced run,
so every correctness gate and the tracer execute. It also checks that the
gates reject wrong answers, and that the benchmark refuses to run in a
directory that holds only BENCHMARK.json and bench/. Exits 1 on any
problem. Run it from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, HERE)

from sploop import QIndex, build_sieve  # noqa: E402

import workloads as wl  # noqa: E402

RUNS = [(name, 0) for name in wl.LIMITS] + [("build-1e8", 1)]


def bench(argv: list[str], cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + argv,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def gates_reject_wrong_answers(problems: list[str]) -> None:
    limit = wl.SELFTEST_LIMIT
    sieve = build_sieve(limit)
    index = QIndex.from_sieve(sieve)
    path = os.path.join(".bench_out", "selftest.cache")
    sieve.save(path)
    with open(path, "r+b") as fh:
        fh.seek(100)
        byte = fh.read(1)
        fh.seek(100)
        fh.write(bytes([byte[0] ^ 1]))
    if not wl.cache_gates(limit, path)[0]:
        problems.append("cache gate accepted a changed cache byte")
    os.remove(path)
    if wl.query_ok("sieve.successor", (117,), 125, sieve, index):
        problems.append("query check accepted successor(117) = 125")
    battery = {layer: check for layer, _, _, check in wl.battery(index, sieve)}
    if battery["theorems.scan_bertrand"]([1, 2, 3, 4, 5], index, sieve):
        problems.append("bertrand gate accepted a failure at n = 5")
    if battery["theorems.search_equal_triple"](None, index, sieve):
        problems.append("triple gate accepted a missing (27, 28, 32)")
    passing = {"suites": [{"suite": "theorem3", "ok": True, "checks": [{"detail": ""}]}]}
    if wl.verify_all_ok(0, passing):
        problems.append("verify gate accepted a run where theorem3 passed")


def main() -> None:
    problems: list[str] = []
    os.makedirs(".bench_out", exist_ok=True)
    gates_reject_wrong_answers(problems)
    for name, trace in RUNS:
        proc = bench(["--workload", name, "--seed", "1", "--seconds", "1",
                      "--trace", str(trace), "--limit", str(wl.SELFTEST_LIMIT)])
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        try:
            result = json.loads(last[0])
        except ValueError:
            problems.append(f"{name} trace {trace}: exit {proc.returncode}, no result: "
                            f"{proc.stderr[-500:]}")
            continue
        status = "ok" if result["correct"] and not result["failed"] else "FAILED"
        print(f"{name:12s} trace {trace}: {status}, {result['attempted']} operations, "
              f"{len(result['metrics'])} metrics")
        if status != "ok" or proc.returncode:
            problems.append(f"{name} trace {trace}: {proc.stdout[-1500:]}")

    bare = os.path.join(".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = bench(["--workload", "cli-1e7", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the benchmark ran without the program's source")
    print("bare directory: refused" if proc.returncode else "bare directory: RAN")

    for p in problems:
        print("PROBLEM:", p)
    print("self-test", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
